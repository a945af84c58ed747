/**
 * @file
 * The traced run: per-layer attribution of a workload.
 *
 * Runs at one evaluation thread so every count repeats exactly.  Time
 * is attributed only from outside the program: self times of the spans
 * the program already records (array.optimize, build.*), spans the
 * benchmark places around public calls (bench.*), and the counters the
 * program exports.  Layers a workload does not reach on its own path
 * are measured on probes built from the workload's inputs.
 */

#include "perfbench/attribution.hh"

#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <sstream>
#include <thread>

#include "array/array_cache.hh"
#include "chip/processor.hh"
#include "chip/report_writer.hh"
#include "common/instrument.hh"
#include "common/net.hh"
#include "common/parallel.hh"
#include "config/xml_loader.hh"
#include "config/xml_parser.hh"
#include "study/eval_core.hh"
#include "study/sweep.hh"
#include "tech/technology.hh"

namespace perfbench {

namespace instr = mcpat::instr;

namespace {

/** Per span name: summed self time (ns), summed duration, calls. */
struct SpanTotals
{
    double selfNs = 0.0;
    double durNs = 0.0;
    std::size_t calls = 0;
};

/**
 * Fold a trace into per-name totals.  A span's self time is its
 * duration minus the durations of the spans directly nested in it on
 * the same thread.
 */
std::map<std::string, SpanTotals>
foldTrace(std::vector<instr::TraceEvent> events)
{
    std::sort(events.begin(), events.end(), [](const auto &a, const auto &b) {
        if (a.tid != b.tid)
            return a.tid < b.tid;
        if (a.startNs != b.startNs)
            return a.startNs < b.startNs;
        return a.durNs > b.durNs;  // the enclosing span first
    });
    std::vector<double> self(events.size());
    std::vector<std::size_t> open;  // indices of enclosing spans
    for (std::size_t i = 0; i < events.size(); ++i) {
        const auto &e = events[i];
        while (!open.empty()) {
            const auto &top = events[open.back()];
            if (top.tid == e.tid && e.startNs < top.startNs + top.durNs)
                break;
            open.pop_back();
        }
        self[i] = static_cast<double>(e.durNs);
        if (!open.empty())
            self[open.back()] -= static_cast<double>(e.durNs);
        open.push_back(i);
    }
    std::map<std::string, SpanTotals> totals;
    for (std::size_t i = 0; i < events.size(); ++i) {
        SpanTotals &t = totals[events[i].name];
        t.selfNs += self[i];
        t.durNs += static_cast<double>(events[i].durNs);
        ++t.calls;
    }
    return totals;
}

double
selfMs(const std::map<std::string, SpanTotals> &totals,
       std::initializer_list<const char *> names)
{
    double ns = 0.0;
    for (const char *n : names) {
        const auto it = totals.find(n);
        if (it != totals.end())
            ns += it->second.selfNs;
    }
    return ns * 1e-6;
}

/** Mean duration per call of a benchmark-side span, in ms. */
double
perCallMs(const std::map<std::string, SpanTotals> &totals, const char *name)
{
    const auto it = totals.find(name);
    if (it == totals.end() || it->second.calls == 0)
        return 0.0;
    return it->second.durNs * 1e-6 / it->second.calls;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

mcpat::study::EvalResult
evaluateFile(const std::string &path)
{
    mcpat::study::EvalRequest req;
    req.configPath = path;
    return mcpat::study::evaluate(req);
}

/**
 * CLI process wall minus in-process study::evaluate wall, both from
 * empty tiers on the same input; median over inputs and rounds.
 */
double
cliOverheadMs(const Context &ctx, const std::vector<std::string> &files,
              Tally &tally)
{
    std::vector<double> diffs;
    for (int round = 0; round < 3; ++round) {
        for (const std::string &f : files) {
            const bool cold = startCold();
            const double t0 = nowSeconds();
            const bool ok = evaluateFile(f).ok;
            const double inProcessMs = (nowSeconds() - t0) * 1e3;
            const ProcessRun p =
                runProcess({ctx.mcpat, "-infile", f, "-threads", "1"});
            tally.check(cold && ok && p.ok, "CLI overhead probe on " + f);
            diffs.push_back(p.wallMs - inProcessMs);
        }
    }
    emptyTiers();
    return median(diffs);
}

/** Technology constructions per bench.tech span. */
constexpr int kTechBatch = 200;

/** Chip-layer probe results, per call. */
struct ChipProbe
{
    double loadMs = 0.0;
    double assembleColdMs = 0.0;
    double assembleWarmMs = 0.0;
    double assembleDiskMs = 0.0;
    double reportMs = 0.0;
    double techUs = 0.0;
    double designPointMs = 0.0;
    std::uint64_t diskHits = 0, diskMisses = 0, diskCorrupt = 0;
};

/**
 * Time config loading, chip assembly (cold, disk-primed, warm), report
 * rendering, Technology construction and design-point evaluation with
 * hot memos, each inside a benchmark-side span.
 */
ChipProbe
probeChipLayers(const Context &ctx, const LayerInputs &in, Tally &tally)
{
    using mcpat::chip::Processor;
    auto &arrays = mcpat::array::ArrayResultCache::instance();
    ChipProbe probe;
    instr::clearTrace();
    instr::setEnabled(true);
    for (const std::string &f : in.configFiles) {
        tally.check(startCold(), "chip probe started warm");
        mcpat::config::LoadResult loaded;
        {
            instr::Span span;
            span.begin("bench.config_load", f);
            loaded = mcpat::config::loadSystemParamsFromFile(f);
        }
        const auto root = mcpat::config::parseXmlFile(f);
        const auto rt = mcpat::config::loadChipStats(root, loaded.system);
        std::ostringstream json;
        std::optional<Processor> cold, warm;
        {
            instr::Span span;
            span.begin("bench.assemble_cold", f);
            cold.emplace(loaded.system);
        }
        {
            instr::Span span;
            span.begin("bench.report", f);
            mcpat::chip::writeReportJson(json, cold->makeReport(rt));
        }
        {
            instr::Span span;
            span.begin("bench.assemble_warm", f);
            warm.emplace(loaded.system);
        }
        tally.check(!json.str().empty(), "report of " + f);
    }

    // Disk tier: prime a directory, then assemble with only it warm.
    const std::string dir = ctx.workDir + "/probe-disk";
    for (int primed = 0; primed < 2; ++primed) {
        for (const std::string &f : in.configFiles) {
            emptyTiers();
            arrays.setCacheDir(dir);
            const auto loaded = mcpat::config::loadSystemParamsFromFile(f);
            std::optional<Processor> proc;
            {
                instr::Span span;
                if (primed)
                    span.begin("bench.assemble_disk", f);
                proc.emplace(loaded.system);
            }
            if (primed) {
                const auto st = arrays.stats();
                probe.diskHits += st.diskHits;
                probe.diskMisses += st.diskMisses;
                probe.diskCorrupt += st.diskCorrupt;
            }
        }
    }
    emptyTiers();

    // One construction is near the clock's resolution, so each span
    // covers a batch.
    using mcpat::tech::DeviceFlavor;
    for (int node : {180, 90, 65, 45, 32, 22}) {
        for (DeviceFlavor fl :
             {DeviceFlavor::HP, DeviceFlavor::LSTP, DeviceFlavor::LOP}) {
            instr::Span span;
            span.begin("bench.tech");
            for (int k = 0; k < kTechBatch; ++k)
                const mcpat::tech::Technology t(node, fl);
        }
    }

    // The perf model and metrics alone: evaluate each point once to
    // warm the memos, then time a second evaluation.
    const std::size_t points = std::min<std::size_t>(8, in.space.size());
    for (std::size_t k = 0; k < points; ++k) {
        const auto cfg = in.space.at(k * in.space.size() / points);
        mcpat::study::evaluateDesignPoint(cfg);
        instr::Span span;
        span.begin("bench.design_point");
        mcpat::study::evaluateDesignPoint(cfg);
    }
    instr::setEnabled(false);
    const auto totals = foldTrace(instr::collectTrace());
    instr::clearTrace();
    emptyTiers();

    probe.loadMs = perCallMs(totals, "bench.config_load");
    probe.assembleColdMs = perCallMs(totals, "bench.assemble_cold");
    probe.assembleWarmMs = perCallMs(totals, "bench.assemble_warm");
    probe.assembleDiskMs = perCallMs(totals, "bench.assemble_disk");
    probe.reportMs = perCallMs(totals, "bench.report");
    probe.techUs = perCallMs(totals, "bench.tech") * 1e3 / kTechBatch;
    probe.designPointMs = perCallMs(totals, "bench.design_point");
    return probe;
}

/**
 * Hold both workers with connections that each send @p hold cached
 * requests while two more connections wait in the accept queue; return
 * the server's queue-wait histogram at p99 (its exact maximum when it
 * holds 100 samples or fewer, where nearest-rank p99 is the maximum).
 */
double
queueWaitP99Ms(const std::string &xml, Tally &tally)
{
    constexpr int kHold = 80;
    instr::Registry::instance().reset();
    instr::setEnabled(true);
    double p99 = 0.0;
    {
        Server server(2);
        const mcpat::net::Endpoint ep =
            mcpat::net::parseEndpoint(std::to_string(server.port()));
        const std::string line =
            "{\"config_xml\": \"" + mcpat::jsonEscapeString(xml) + "\"}\n";
        auto request = [&](mcpat::net::Connection &c) {
            std::string reply;
            return c.writeAll(line) && c.readLine(reply) &&
                reply.rfind("{\"status\": 200", 0) == 0;
        };
        std::vector<mcpat::net::Connection> conns;
        for (int i = 0; i < 4; ++i)
            conns.push_back(mcpat::net::connectTo(ep));
        // The first two now occupy both workers; the other two queue.
        bool ok = request(conns[0]) && request(conns[1]);
        std::vector<std::thread> threads;
        std::vector<char> good(4, 0);
        for (int i = 0; i < 4; ++i) {
            threads.emplace_back([&, i] {
                bool g = true;
                for (int r = 0; r < (i < 2 ? kHold : 1) && g; ++r)
                    g = request(conns[i]);
                good[i] = g;
                conns[i].close();
            });
        }
        for (auto &t : threads)
            t.join();
        for (char g : good)
            ok = ok && g;
        tally.check(ok, "queue-wait probe");
        for (const auto &[name, snap] :
             instr::Registry::instance().histogramSnapshots()) {
            if (name == "server.queue_wait_ms")
                p99 = snap.count <= 100 ? snap.max : snap.quantile(0.99);
        }
    }
    instr::setEnabled(false);
    emptyTiers();
    return p99;
}

} // namespace

void
traceRun(Workload &w, const Context &ctx, Tally &tally, Metrics &m)
{
    mcpat::parallel::setThreadCount(1);
    const LayerInputs in = w.layerInputs();
    HostSpeed speed;
    speed.mark();
    const double t0 = nowSeconds();
    instr::setEnabled(false);

    // The workload's own operation, untraced then traced, in pairs.
    std::vector<double> untraced, traced, optimizeMs, nsPerCandidate,
        coreMs, uncoreMs;
    OpCounts first;
    for (std::size_t rep = 0;
         rep < 2 || (rep < 12 && nowSeconds() < t0 + ctx.seconds / 2);
         ++rep) {
        OpCounts plain, counted;
        untraced.push_back(w.operationOnce(tally, plain));
        instr::clearTrace();
        instr::setEnabled(true);
        traced.push_back(w.operationOnce(tally, counted));
        instr::setEnabled(false);
        const auto totals = foldTrace(instr::collectTrace());
        instr::clearTrace();
        if (rep == 0)
            first = counted;
        tally.check(counted == first && plain == first,
                    "operation counts changed between repetitions");
        optimizeMs.push_back(selfMs(totals, {"array.optimize"}));
        nsPerCandidate.push_back(
            ratio(optimizeMs.back() * 1e6, counted.candidates));
        coreMs.push_back(selfMs(totals, {"build.core"}));
        uncoreMs.push_back(selfMs(
            totals, {"build.l2", "build.l3", "build.directory", "build.noc",
                     "build.memctrl", "build.io"}));
    }

    speed.mark();
    const ChipProbe chip = probeChipLayers(ctx, in, tally);
    const double cliMs = cliOverheadMs(ctx, in.configFiles, tally);
    speed.mark();

    tally.check(startCold(), "sweep probe started warm");
    const auto search = mcpat::study::runSweepSearch(
        in.space, mcpat::study::SweepSearchOptions());
    emptyTiers();

    tally.check(startCold(), "server probe started warm");
    Traffic traffic;
    mcpat::study::ServerStats stats;
    {
        Server server(2);
        traffic = drive(server, in.stream, 1e9, tally);
        stats = server.stats();
    }
    const double queueWait = queueWaitP99Ms(in.stream.xml.front(), tally);
    speed.mark();
    // Times are reported at reference host speed, like the end-to-end
    // metrics; counts and ratios are unscaled.
    const double f = speed.overall();

    const double plainMs = median(untraced) * 1e3;
    const double tracedMs = median(traced) * 1e3;
    const double lookups = first.arrayHits + first.arrayMisses;
    const double memoLookups = first.memoHits + first.memoMisses;
    const double diskProbes = chip.diskHits + chip.diskMisses;

    auto put = [&](const std::string &name, double value,
                   const std::string &unit, const std::string &note) {
        if (unit == "ms" || unit == "us" || unit == "ns")
            value *= f;
        m[name] = {value, unit};
        std::printf("  %-26s %14.4f %-6s %s\n", name.c_str(), value,
                    unit.c_str(), note.c_str());
    };
    auto count = [](double v) {
        return std::to_string(static_cast<unsigned long long>(v));
    };
    std::printf("%s traced run: 1 evaluation thread, %zu untraced/traced "
                "pairs of the workload's operation; host speed factor "
                "%.3f applied to times\n",
                ctx.workload.c_str(), untraced.size(), f);
    put("trace.overhead_ms", tracedMs - plainMs, "ms",
        "host: traced " + std::to_string(tracedMs) + " ms - untraced " +
            std::to_string(plainMs) + " ms (medians)");
    put("trace.overhead_pct", 100.0 * ratio(tracedMs - plainMs, plainMs),
        "%", "of the untraced operation");
    put("config.load_ms", chip.loadMs, "ms",
        "loadSystemParamsFromFile, per call");
    put("tech.construct_us", chip.techUs, "us",
        "one Technology per node x flavor");
    put("array.optimize_ms", median(optimizeMs), "ms",
        "self time of array.optimize spans per operation");
    put("array.candidates", first.candidates, "count",
        "candidates evaluated per operation");
    put("array.pruned_ratio",
        ratio(first.pruned, first.candidates + first.pruned), "ratio",
        count(first.pruned) + " pruned / " +
            count(first.candidates + first.pruned));
    put("array.ns_per_candidate", median(nsPerCandidate), "ns",
        "array.optimize self time / candidates");
    put("array.mem_hit_ratio", ratio(first.arrayHits, lookups), "ratio",
        count(first.arrayHits) + " hits / " + count(lookups) + " lookups");
    put("array.disk_hit_ratio", ratio(chip.diskHits, diskProbes), "ratio",
        count(chip.diskHits) + " hits / " + count(diskProbes) +
            " probes, disk tier only");
    put("array.disk_corrupt", chip.diskCorrupt, "count",
        "disk records skipped as invalid");
    put("core.build_ms", median(coreMs), "ms",
        "self time of build.core per operation");
    put("uncore.build_ms", median(uncoreMs), "ms",
        "self time of build.{l2,l3,directory,noc,memctrl,io}");
    put("chip.assemble_cold_ms", chip.assembleColdMs, "ms",
        "Processor, every tier empty, per input");
    put("chip.assemble_disk_ms", chip.assembleDiskMs, "ms",
        "Processor, only the disk tier primed");
    put("chip.assemble_warm_ms", chip.assembleWarmMs, "ms",
        "Processor, memos hot");
    put("chip.report_ms", chip.reportMs, "ms",
        "makeReport + writeReportJson");
    put("chip.memo_hit_ratio", ratio(first.memoHits, memoLookups), "ratio",
        count(first.memoHits) + " hits / " + count(memoLookups) +
            " lookups");
    put("chip.memo_evictions", first.memoEvictions, "count",
        "whole-table drops per operation");
    put("perf.design_point_ms", chip.designPointMs, "ms",
        "evaluateDesignPoint with memos hot");
    put("sweep.full_evals", search.fullEvaluations, "count",
        "search over a " + std::to_string(search.gridSize) +
            "-point grid");
    put("sweep.rounds", search.rounds, "count", "refinement rounds");
    put("server.result_hit_ratio",
        ratio(stats.resultHits, stats.served), "ratio",
        count(stats.resultHits) + " result-cache hits / " +
            count(stats.served) + " served");
    put("server.eval_ms", median(traffic.evalMs), "ms",
        "timing_ms.wall of " + std::to_string(traffic.evalMs.size()) +
            " uncached replies (median)");
    put("server.cached_rtt_ms", median(traffic.cachedRttMs), "ms",
        "round trip of " + std::to_string(traffic.cachedRttMs.size()) +
            " cached replies (median)");
    put("server.queue_wait_p99_ms", queueWait, "ms",
        "accept-queue wait, 4 connections on 2 workers");
    put("cli.overhead_ms", cliMs, "ms",
        "CLI process wall - in-process evaluate wall, same input");
}

} // namespace perfbench

/**
 * @file
 * The benchmark program: one run of one workload.
 *
 *   perfbench_run --workload <cli_configs|sweep_dse|server_mixed>
 *       --seed <n> --seconds <s> --trace <0|1>
 *       --mcpat <path of the CLI> --workdir <scratch directory>
 *
 * Run from the repository root (configs/ is read from there).  Prints
 * human-readable lines, then as its last line one JSON object:
 * {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
 * metrics are the end-to-end ones, with --trace 1 the per-layer ones.
 * A benchmark bug (an input that does not validate, a missing file)
 * exits non-zero without a result.
 *
 * Every workload reports the same end-to-end metrics, each meaning the
 * workload's own figure:
 *
 *   metric            cli_configs          sweep_dse           server_mixed
 *   latency_ms        cold process wall    search to frontier  p50 round trip
 *   throughput_per_s  inputs/s, disk tier  grid points/s       replies/s
 *   tail_ms           highest percentile with >= 10 samples beyond it, over
 *                     per-input medians    searches            round trips,
 *                                                              <= p99.9
 *   peak_rss_mb       children's maximum   this process        this process
 *
 * plus setup_s, ok_ratio (1 - failed / attempted) and the model's
 * in-sample error against the four published chips.  Times are scaled
 * to a reference host speed (see HostSpeed); the raw host times are
 * printed beside them.
 */

#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "bench/bench_util.hh"
#include "common/parallel.hh"
#include "perfbench/attribution.hh"
#include "perfbench/common.hh"
#include "perfbench/workloads.hh"

using namespace perfbench;

namespace {

/**
 * Confine this process, its threads and its children to the first two
 * CPUs it may use.  Every workload keeps at most two threads busy.  On
 * the 4-vCPU VM this benchmark was built on, waking an idle vCPU took
 * 20-90 us against ~8 us for a busy one, and with four CPUs to spread
 * over, the two-thread workloads swung by +-30% between identical runs;
 * on two CPUs they held within about +-10%.
 */
void
confineToTwoCpus()
{
    cpu_set_t allowed, two;
    CPU_ZERO(&allowed);
    CPU_ZERO(&two);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0)
        return;
    int taken = 0;
    for (int c = 0; c < CPU_SETSIZE && taken < 2; ++c) {
        if (CPU_ISSET(c, &allowed)) {
            CPU_SET(c, &two);
            ++taken;
        }
    }
    if (taken == 2)
        sched_setaffinity(0, sizeof two, &two);
}

/** Set-ups per run; setup_s is their median. */
constexpr int kSetUps = 5;

/**
 * Model error against the four published chips.  In-sample: the
 * calibration constants were tuned on these chips, so this guards
 * against model drift, not accuracy on held-out data.
 */
void
accuracy(Tally &tally, Metrics &metrics)
{
    double tdp = 0.0, area = 0.0;
    std::printf("accuracy vs published chips (IN-SAMPLE: calibration was "
                "tuned on these four chips; a drift guard, not held-out "
                "accuracy)\n");
    for (const auto &chip : mcpat::bench::publishedChips()) {
        const auto row = mcpat::bench::validateChip(chip);
        const double t = 100.0 * std::fabs(row.tdpError());
        const double a = 100.0 * std::fabs(row.areaError());
        tally.check(std::isfinite(t) && std::isfinite(a),
                    "validation of " + chip.name);
        std::printf("  %-30s TDP %6.2f%%  area %6.2f%%\n", chip.name.c_str(),
                    t, a);
        tdp = std::max(tdp, t);
        area = std::max(area, a);
    }
    metrics["tdp_err_max_pct"] = {tdp, "%"};
    metrics["area_err_max_pct"] = {area, "%"};
}

void
printResult(const Tally &tally, const Metrics &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                tally.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed));
    const char *sep = "";
    for (const auto &[name, m] : metrics) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                    name.c_str(), m.value, m.unit.c_str());
        sep = ", ";
    }
    std::printf("}}\n");
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_run --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --mcpat <path> "
                 "--workdir <dir>\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Context ctx;
    bool trace = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i], value = argv[i + 1];
        if (key == "--workload")
            ctx.workload = value;
        else if (key == "--seed")
            ctx.seed = std::stoull(value);
        else if (key == "--seconds")
            ctx.seconds = std::stod(value);
        else if (key == "--trace")
            trace = value == "1";
        else if (key == "--mcpat")
            ctx.mcpat = value;
        else if (key == "--workdir")
            ctx.workDir = value;
        else
            return usage();
    }
    if (argc % 2 == 0 || ctx.workload.empty() || ctx.mcpat.empty() ||
        ctx.workDir.empty() || !(ctx.seconds > 0))
        return usage();

    confineToTwoCpus();
    try {
        // The sweep's evaluation pool has two threads; the CLI children
        // and the server's evaluations run on one.
        mcpat::parallel::setThreadCount(ctx.workload == "sweep_dse" ? 2 : 1);
        auto workload = makeWorkload(ctx);
        std::vector<double> setUpS, rawSetUpS;
        HostSpeed speed;
        speed.mark();
        for (int k = 0; k < kSetUps; ++k) {
            const double t0 = nowSeconds();
            workload->setUp();
            rawSetUpS.push_back(nowSeconds() - t0);
            speed.mark();
            setUpS.push_back(rawSetUpS.back() * speed.factor(k));
        }

        Tally tally;
        Metrics metrics;
        if (trace) {
            traceRun(*workload, ctx, tally, metrics);
        } else {
            workload->measure(tally, metrics);
            accuracy(tally, metrics);
            metrics["setup_s"] = {median(setUpS), "s"};
            metrics["ok_ratio"] = {
                static_cast<double>(tally.attempted - tally.failed) /
                    std::max<std::uint64_t>(tally.attempted, 1),
                "ratio"};
            std::printf("set-up: median of %d: %.4f s (host %.4f s)\n",
                        kSetUps, median(setUpS), median(rawSetUpS));
        }
        std::printf("operations: %llu attempted, %llu failed\n",
                    static_cast<unsigned long long>(tally.attempted),
                    static_cast<unsigned long long>(tally.failed));
        for (const std::string &note : tally.notes)
            std::printf("  FAILED: %s\n", note.c_str());
        std::fflush(stdout);
        printResult(tally, metrics);
        return 0;
    } catch (const std::exception &e) {
        std::fflush(stdout);
        std::fprintf(stderr, "perfbench: benchmark error: %s\n", e.what());
        return 2;
    }
}

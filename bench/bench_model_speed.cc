/**
 * @file
 * Experiment M1: modeling speed (google-benchmark).  The paper's core
 * claim of practicality is that a full chip models in well under a
 * second — fast enough to embed in design-space-exploration loops —
 * unlike EDA flows.  This bench times the three building blocks: a
 * cache solve (with organization search), a full core, and a complete
 * validation-class chip with its report.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <filesystem>
#include <thread>

#include "array/array_cache.hh"
#include "array/cache_model.hh"
#include "chip/component_memo.hh"
#include "chip/processor.hh"
#include "common/flight_recorder.hh"
#include "common/instrument.hh"
#include "common/parallel.hh"
#include "config/xml_loader.hh"
#include "core/core.hh"
#include "study/sweep.hh"

#include "bench/bench_util.hh"

namespace {

using namespace mcpat;

void
BM_CacheSolve(benchmark::State &state)
{
    const tech::Technology t(65);
    for (auto _ : state) {
        array::CacheParams p;
        p.capacityBytes = 1024.0 * 1024;
        p.assoc = 8;
        p.banks = 4;
        p.sequentialAccess = true;
        array::CacheModel m(p, t);
        benchmark::DoNotOptimize(m.readEnergy());
    }
}
BENCHMARK(BM_CacheSolve)->Unit(benchmark::kMillisecond);

void
BM_CoreSolve(benchmark::State &state)
{
    const tech::Technology t(65);
    for (auto _ : state) {
        core::CoreParams p;
        core::Core c(p, t);
        benchmark::DoNotOptimize(c.makeTdpReport().peakDynamic);
    }
}
BENCHMARK(BM_CoreSolve)->Unit(benchmark::kMillisecond);

void
BM_FullChip(benchmark::State &state)
{
    const auto loaded = config::loadSystemParamsFromFile(
        bench::findConfig("niagara.xml"));
    for (auto _ : state) {
        chip::Processor proc(loaded.system);
        benchmark::DoNotOptimize(proc.tdp());
    }
}
BENCHMARK(BM_FullChip)->Unit(benchmark::kMillisecond);

/**
 * End-to-end scoreboard: the paper's 22 nm case study (8 design points
 * x 8 SPLASH-2 workloads) at 1 vs 4 evaluation threads, with the array
 * cache cold each iteration so the full optimization workload is
 * really performed.  On a machine with >= 4 cores the 4-thread row
 * should be >= 2x faster end to end; results are bit-identical by the
 * determinism tests.
 */
void
BM_CaseStudy(benchmark::State &state)
{
    parallel::setThreadCount(static_cast<int>(state.range(0)));
    auto &cache = array::ArrayResultCache::instance();
    for (auto _ : state) {
        cache.clear();
        const auto results = study::runCaseStudy();
        benchmark::DoNotOptimize(results.front().meanMetrics.ed2a);
    }
    cache.clear();
    parallel::setThreadCount(0);
}
BENCHMARK(BM_CaseStudy)
    ->Arg(1)
    ->Arg(4)
    ->ArgName("threads")
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/**
 * Instrumentation-overhead scoreboard: the same full-chip solve with
 * the instrumentation layer off vs on (spans recording, registry
 * live).  The `overhead_pct` counter is the headline; the layer's
 * budget is < 2% on this workload (sites sit at phase/component
 * granularity, so a solve crosses only a handful of them).  Both arms
 * run with the array cache and the component memo cold — the cost
 * profile of a real CLI run, where every component is built and every
 * array's organization search actually executes; a memo-hot rebuild
 * finishes in microseconds and would measure the fixed span cost
 * against almost no work.  The on arm also runs the flight recorder at
 * a fast cadence, so the budget covers histograms and the background
 * sampler, not just spans and counters.
 */
void
BM_InstrumentationOverhead(benchmark::State &state)
{
    using clock = std::chrono::steady_clock;
    const auto loaded = config::loadSystemParamsFromFile(
        bench::findConfig("niagara.xml"));
    auto &cache = array::ArrayResultCache::instance();
    auto &memo = chip::ComponentMemo::instance();
    const std::string recorder_csv =
        (std::filesystem::temp_directory_path() /
         "mcpat_bench_recorder.csv")
            .string();

    double off_s = 0.0, on_s = 0.0;
    for (auto _ : state) {
        instr::setEnabled(false);
        cache.clear();
        memo.clear();
        const auto t0 = clock::now();
        {
            chip::Processor proc(loaded.system);
            benchmark::DoNotOptimize(proc.tdp());
        }
        const auto t1 = clock::now();

        instr::setEnabled(true);
        auto &recorder = instr::FlightRecorder::instance();
        recorder.start(recorder_csv, 10);
        // Wait out the spawn-plus-first-sample startup transient so
        // the timed window sees the recorder's steady state (the
        // sampler interleaving with the solve), not thread creation.
        const auto settle = clock::now() + std::chrono::milliseconds(100);
        while (recorder.samples() == 0 && clock::now() < settle)
            std::this_thread::yield();
        cache.clear();
        memo.clear();
        const auto t2 = clock::now();
        {
            chip::Processor proc(loaded.system);
            benchmark::DoNotOptimize(proc.tdp());
        }
        const auto t3 = clock::now();
        recorder.stop();
        instr::setEnabled(false);
        instr::clearTrace();

        off_s += std::chrono::duration<double>(t1 - t0).count();
        on_s += std::chrono::duration<double>(t3 - t2).count();
    }
    cache.clear();
    memo.clear();
    instr::Registry::instance().reset();
    std::error_code ec;
    std::filesystem::remove(recorder_csv, ec);
    const double n = static_cast<double>(state.iterations());
    state.counters["off_ms"] = 1e3 * off_s / n;
    state.counters["on_ms"] = 1e3 * on_s / n;
    state.counters["overhead_pct"] =
        off_s > 0.0 ? 100.0 * (on_s - off_s) / off_s : 0.0;
}
BENCHMARK(BM_InstrumentationOverhead)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();

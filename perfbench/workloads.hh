/**
 * @file
 * The benchmark's three workloads.  Each loads a different layer of the
 * program, checks its own outputs, and counts failed operations against
 * attempted ones:
 *
 *  - cli_configs: one CLI process per input, serially, once with every
 *    tier empty and once with a disk tier primed at set-up.  How users
 *    run McPAT; dominated by the array organization search, and the
 *    only place the disk tier is measured.
 *  - sweep_dse: a Pareto search, then the exhaustive grid, over a
 *    seeded design space, each from empty tiers on a 2-thread
 *    evaluation pool.  Dominated by memo reuse, the perf model and the
 *    parallel engine.
 *  - server_mixed: an in-process evaluation server driven closed-loop
 *    by two clients sending inline XML, three quarters verbatim
 *    repeats.  Array search is a minority here, so config loading,
 *    report rendering and the result cache show.
 */

#ifndef MCPAT_PERFBENCH_WORKLOADS_HH
#define MCPAT_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/common.hh"
#include "perfbench/harness.hh"
#include "perfbench/inputs.hh"

namespace perfbench {

/** Command-line settings of one benchmark run. */
struct Context
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    std::string mcpat;    ///< path of the CLI binary
    std::string workDir;  ///< scratch directory for generated files
};

/** A workload's inputs for the traced run's per-layer probes. */
struct LayerInputs
{
    std::vector<std::string> configFiles;  ///< XML files on disk
    mcpat::study::SweepSpace space;        ///< perf and sweep layers
    Stream stream;                         ///< server layer, one client
};

/** Counters summed over one run of a workload's own operation. */
struct OpCounts
{
    std::uint64_t candidates = 0;
    std::uint64_t pruned = 0;
    std::uint64_t arrayHits = 0;
    std::uint64_t arrayMisses = 0;
    std::uint64_t memoHits = 0;
    std::uint64_t memoMisses = 0;
    std::uint64_t memoEvictions = 0;

    bool operator==(const OpCounts &) const = default;

    /** Add the tier counters accumulated since the last startCold(). */
    void addTierCounters();
};

class Workload
{
  public:
    explicit Workload(const Context &ctx) : _ctx(ctx) {}
    virtual ~Workload() = default;
    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;

    /**
     * Make the inputs from the seed, validate them, and prepare what
     * the measurement needs.  Called several times to time set-up; each
     * call replaces the previous one.  Throws on a benchmark bug.
     */
    virtual void setUp() = 0;

    /** The untraced measurement: fills the end-to-end metrics. */
    virtual void measure(Tally &tally, Metrics &metrics) = 0;

    /**
     * The workload's own operation once, from empty tiers, at the
     * current evaluation thread count.  Returns its wall seconds.
     */
    virtual double operationOnce(Tally &tally, OpCounts &counts) = 0;

    virtual LayerInputs layerInputs() const = 0;

  protected:
    Context _ctx;
};

/** The workload named by ctx.workload; throws for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const Context &ctx);

/** Write @p in under @p dir as <index>-<name>.xml; returns the paths. */
std::vector<std::string> writeInputs(const std::vector<ConfigInput> &in,
                                     const std::string &dir);

} // namespace perfbench

#endif // MCPAT_PERFBENCH_WORKLOADS_HH

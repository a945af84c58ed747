/**
 * @file
 * Seeded input generation for the benchmark workloads.  Every input the
 * program sees is made here from the seed, and every one is validated
 * at set-up: a generated input that does not validate is a benchmark
 * bug, so generation throws instead of handing it to a workload.
 */

#ifndef MCPAT_PERFBENCH_INPUTS_HH
#define MCPAT_PERFBENCH_INPUTS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/common.hh"
#include "study/sweep_search.hh"

namespace perfbench {

/** One XML configuration, named for reports and file names. */
struct ConfigInput
{
    std::string name;
    std::string xml;
};

/** The six shipped configurations, read from configs/ under the cwd. */
std::vector<ConfigInput> shippedConfigs();

/**
 * cli_configs inputs: the shipped configs plus five variants of each:
 * a seeded core clock, the last-level cache doubled and halved, twice
 * the cores, and a seeded other device flavor.
 */
std::vector<ConfigInput> cliInputs(std::uint64_t seed);

/**
 * A one- or two-parameter variant of @p base drawn from @p rng
 * (core clock, temperature, link length, I/O toggle rate, white space,
 * memory channels or L2 capacity).
 */
ConfigInput freshVariant(const ConfigInput &base, Rng &rng);

/**
 * A grid of about 1000 points around SweepSpace::reference(): same
 * axis counts, with L2 budgets and clocks drawn near the reference
 * values.
 */
mcpat::study::SweepSpace sweepSpace(std::uint64_t seed);

/** Throw std::runtime_error when @p in does not load and validate. */
void validateInput(const ConfigInput &in);

} // namespace perfbench

#endif // MCPAT_PERFBENCH_INPUTS_HH

/**
 * @file
 * The traced run (--trace 1): per-layer attribution of one workload.
 */

#ifndef MCPAT_PERFBENCH_ATTRIBUTION_HH
#define MCPAT_PERFBENCH_ATTRIBUTION_HH

#include "perfbench/common.hh"
#include "perfbench/workloads.hh"

namespace perfbench {

/**
 * Attribute @p w's time and work to the program's modules, filling
 * every per-layer metric, and report the tracing overhead against an
 * untraced run of the same operation.
 */
void traceRun(Workload &w, const Context &ctx, Tally &tally, Metrics &m);

} // namespace perfbench

#endif // MCPAT_PERFBENCH_ATTRIBUTION_HH

/**
 * @file
 * Cross-module integration tests: XML config -> processor -> report
 * for every bundled configuration, performance model -> runtime power,
 * and whole-tree consistency invariants.
 */

#include <gtest/gtest.h>

#include <functional>

#include "chip/processor.hh"
#include "config/xml_loader.hh"
#include "perf/activity_gen.hh"
#include "study/sweep.hh"
#include "test_paths.hh"

using namespace mcpat;

namespace {

/** Recursively verify parent totals cover their children. */
void
checkTreeConsistency(const Report &r)
{
    if (r.children.empty())
        return;
    double dyn = 0.0, sub = 0.0, gate = 0.0, area = 0.0;
    for (const auto &c : r.children) {
        dyn += c.peakDynamic;
        sub += c.subthresholdLeakage;
        gate += c.gateLeakage;
        area += c.area;
        checkTreeConsistency(c);
    }
    const double tol = 1e-6;
    // Parents may add their own overhead (white space, wiring) but can
    // never report less than the sum of their parts.
    EXPECT_GE(r.peakDynamic, dyn * (1.0 - tol)) << r.name;
    EXPECT_GE(r.subthresholdLeakage, sub * (1.0 - tol)) << r.name;
    EXPECT_GE(r.gateLeakage, gate * (1.0 - tol)) << r.name;
    EXPECT_GE(r.area, area * (1.0 - tol)) << r.name;
}

class ConfigIntegrationTest
    : public ::testing::TestWithParam<const char *>
{};

} // namespace

TEST_P(ConfigIntegrationTest, LoadsBuildsAndReports)
{
    const auto loaded =
        config::loadSystemParamsFromFile(configPath(GetParam()));
    EXPECT_TRUE(loaded.warnings.empty());

    const chip::Processor proc(loaded.system);
    EXPECT_GT(proc.tdp(), 10.0);
    EXPECT_LT(proc.tdp(), 400.0);
    EXPECT_GT(proc.area() / mm2, 50.0);
    EXPECT_LT(proc.area() / mm2, 800.0);
}

TEST_P(ConfigIntegrationTest, ReportTreeConsistent)
{
    const auto loaded =
        config::loadSystemParamsFromFile(configPath(GetParam()));
    const chip::Processor proc(loaded.system);
    checkTreeConsistency(proc.tdpReport());
}

TEST_P(ConfigIntegrationTest, ScaledStatsScaleRuntimePower)
{
    const auto loaded =
        config::loadSystemParamsFromFile(configPath(GetParam()));
    const chip::Processor proc(loaded.system);

    stats::ChipStats low = stats::ChipStats::tdp(loaded.system);
    low.perCore = low.perCore.scaled(0.2);
    low.perCore.clockGating = 0.4;
    low.mcUtilization *= 0.2;
    low.nocFlitsPerCycle *= 0.2;

    const Report full = proc.makeReport(
        stats::ChipStats::tdp(loaded.system));
    const Report idle = proc.makeReport(low);
    EXPECT_LT(idle.runtimeDynamic, full.runtimeDynamic);
    // Leakage is activity-independent.
    EXPECT_NEAR(idle.leakage(), full.leakage(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, ConfigIntegrationTest,
                         ::testing::Values("niagara.xml",
                                           "niagara2.xml",
                                           "alpha21364.xml",
                                           "xeon_tulsa.xml"));

TEST(Integration, PerfToChipPowerPipeline)
{
    // The full paper workflow: architecture -> performance simulation
    // -> activity stats -> runtime power, for one case-study point.
    study::CaseStudyConfig cfg;
    cfg.totalCores = 16;
    const auto sys = study::makeCaseStudySystem(cfg);
    const chip::Processor proc(sys);

    const auto &heavy = perf::findWorkload("ocean");
    const auto &light = perf::findWorkload("water");
    const auto p_heavy = perf::evaluateSystem(sys, heavy);
    const auto p_light = perf::evaluateSystem(sys, light);

    const Report r_heavy = proc.makeReport(
        perf::makeRuntimeStats(sys, heavy, p_heavy));
    const Report r_light = proc.makeReport(
        perf::makeRuntimeStats(sys, light, p_light));

    // water executes more instructions/s (compute-bound, high IPC)...
    EXPECT_GT(p_light.throughput, p_heavy.throughput);
    // ...and both land between idle leakage and TDP.
    for (const Report *r : {&r_heavy, &r_light}) {
        EXPECT_GT(r->runtimePower(), r->leakage());
        EXPECT_LT(r->runtimePower(), proc.tdp() * 1.05);
    }
}

TEST(Integration, DvfsReducesChipPower)
{
    auto loaded =
        config::loadSystemParamsFromFile(configPath("niagara.xml"));
    const chip::Processor nominal(loaded.system);

    auto scaled = loaded.system;
    scaled.vdd = 1.0;  // below the 1.2 V nominal
    scaled.core.clockRate *= 0.8;
    const chip::Processor slow(scaled);

    EXPECT_LT(slow.tdp(), nominal.tdp());
}

TEST(Integration, ConservativeWiresSlowTheCore)
{
    auto loaded =
        config::loadSystemParamsFromFile(configPath("niagara.xml"));
    const chip::Processor agg(loaded.system);

    auto cons = loaded.system;
    cons.projection = tech::WireProjection::Conservative;
    const chip::Processor con(cons);

    EXPECT_LT(con.core().maxFrequency(), agg.core().maxFrequency());
}

TEST(Integration, TemperatureRaisesLeakageOnly)
{
    auto loaded =
        config::loadSystemParamsFromFile(configPath("niagara2.xml"));
    auto cool_sys = loaded.system;
    cool_sys.temperature = 320.0;
    const chip::Processor hot(loaded.system);   // 360 K
    const chip::Processor cool(cool_sys);
    EXPECT_GT(hot.tdpReport().subthresholdLeakage,
              2.0 * cool.tdpReport().subthresholdLeakage);
    EXPECT_NEAR(hot.tdpReport().peakDynamic,
                cool.tdpReport().peakDynamic,
                hot.tdpReport().peakDynamic * 0.01);
}

/**
 * @file
 * Organization-search tests.  ArrayModel::optimize sweeps every
 * (Ndwl, Ndbl, Nspd) organization of the candidate grid and keeps the
 * best under the weighted objective.  These tests pin the winner and
 * every ArrayResult figure of that search, bit for bit, across array
 * shapes, cell types, banking, timing targets and two technology nodes,
 * and check the search statistics.  Chip-level byte identity is held by
 * the golden report digests (test_golden.cc).
 */

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

#include "array/array_cache.hh"
#include "array/array_model.hh"
#include "common/parallel.hh"

using namespace mcpat;

namespace {

/** RAII guard: disable the memory tier so every solve is real. */
struct NoCacheGuard
{
    NoCacheGuard() : previous(array::ArrayResultCache::instance().enabled())
    {
        array::ArrayResultCache::instance().clear();
        array::ArrayResultCache::instance().setEnabled(false);
    }
    ~NoCacheGuard()
    {
        array::ArrayResultCache::instance().setEnabled(previous);
        array::ArrayResultCache::instance().clear();
    }
    bool previous;
};

/** The array shapes the search is pinned on, each named by params.name. */
std::vector<array::ArrayParams>
arrayShapes()
{
    std::vector<array::ArrayParams> shapes;
    const auto add = [&shapes](const char *name) -> array::ArrayParams & {
        shapes.push_back(array::ArrayParams{});
        shapes.back().name = name;
        return shapes.back();
    };
    {
        auto &p = add("32KB cache-like");
        p.sizeBytes = 32.0 * 1024;
        p.blockWidthBits = 256;
    }
    {
        auto &p = add("2MB banked L2");
        p.sizeBytes = 2.0 * 1024 * 1024;
        p.blockWidthBits = 512;
        p.banks = 4;
    }
    {
        auto &p = add("multiported regfile");
        p.rows = 128;
        p.bits = 64;
        p.readPorts = 4;
        p.writePorts = 2;
        p.readWritePorts = 0;
    }
    {
        auto &p = add("TLB CAM");
        p.rows = 64;
        p.bits = 52;
        p.cellType = array::CellType::CAM;
        p.searchPorts = 2;
    }
    {
        auto &p = add("1MB eDRAM");
        p.sizeBytes = 1024.0 * 1024;
        p.blockWidthBits = 512;
        p.cellType = array::CellType::EDRAM;
        p.flavor = tech::DeviceFlavor::LSTP;
    }
    {
        auto &p = add("DFF buffer");
        p.rows = 32;
        p.bits = 128;
        p.cellType = array::CellType::DFF;
    }
    {
        auto &p = add("timing-constrained");
        p.sizeBytes = 64.0 * 1024;
        p.blockWidthBits = 256;
        p.targetCycleTime = 0.3e-9;  // tight: constrained pass matters
    }
    {
        auto &p = add("timing-infeasible");
        p.sizeBytes = 64.0 * 1024;
        p.blockWidthBits = 256;
        p.targetCycleTime = 1.0e-12;  // impossible: fallback passes
    }
    return shapes;
}

/** A winner and its figures, recorded from the search at 17 digits. */
struct Pinned
{
    const char *what;
    int nodeNm;
    array::ArrayOrg org;
    bool meetsTiming;
    double area, accessDelay, cycleTime;
    double readEnergy, writeEnergy, searchEnergy;
    double subthresholdLeakage, gateLeakage, refreshPower;
    double height, width;
};

// 65 nm: Technology(65); 22 nm: Technology(22, LOP, 340 K).
const Pinned kPinned[] = {
    {"32KB cache-like", 65, {4, 32, 1}, true,
     4.6573087109654514e-07, 2.7621989742829141e-10, 1.3810994871414571e-10,
     3.782279434421259e-11, 5.6686533521779136e-12, 0,
     0.1409116693487199, 0.0098458103908719875, 0,
     0.00064946722044133883, 0.00039894791924501081},
    {"32KB cache-like", 22, {4, 32, 1}, true,
     5.1785612849657552e-08, 1.8416627408619044e-10, 9.208313704309522e-11,
     2.9901435615200705e-12, 5.0774141760711511e-13, 0,
     0.00067257245842487778, 0.00010356854202559751, 0,
     0.00021981967461091466, 0.00013474150824913092},
    {"2MB banked L2", 65, {16, 32, 2}, true,
     2.4605508771076903e-05, 8.8743914206187639e-10, 4.4371957103093819e-10,
     6.1646728912255035e-10, 4.3165550336627519e-10, 0,
     7.9168292642047229, 0.52290406178047211, 0,
     0.0045717377635307102, 0.0031184624035064021},
    {"2MB banked L2", 22, {16, 32, 2}, true,
     2.8055856629465095e-06, 7.1258712219134879e-10, 3.562935610956744e-10,
     5.8828862554082482e-11, 4.1243281331438106e-11, 0,
     0.03935923852490672, 0.0058320664409040133, 0,
     0.0015473573968873171, 0.0010531834366087236},
    {"multiported regfile", 65, {2, 8, 1}, true,
     1.5703995484309014e-07, 2.1865246684994962e-10, 1.1406117440029241e-10,
     5.2740044051210312e-12, 1.7468142632719667e-12, 0,
     0.013606275307195308, 0.0010917783787195308, 0,
     0.00019645850638791838, 0.00020776188367082468},
    {"multiported regfile", 22, {2, 8, 1}, true,
     1.7759936691323219e-08, 1.3554466848010409e-10, 6.930899412271738e-11,
     4.1668218148715511e-13, 1.5010695395618935e-13, 0,
     6.3369416936361449e-05, 1.1233565850681326e-05, 0,
     6.6493648315910832e-05, 7.0241996266667844e-05},
    {"TLB CAM", 65, {1, 4, 1}, true,
     1.8071178674550696e-08, 3.1815957498726905e-10, 1.1277888411005289e-10,
     3.5677499545363893e-12, 1.1535735671945367e-12, 4.6499931762998027e-12,
     0.0052865886805035329, 0.00040291038805035322, 0,
     6.4718019451637945e-05, 0.00011064264040536483},
    {"TLB CAM", 22, {1, 4, 1}, true,
     1.8919143988486428e-09, 1.6739469759021701e-10, 6.8722708440187196e-11,
     2.6840221295881308e-13, 9.4978843011138239e-14, 4.3319133387796478e-13,
     2.2693920576768652e-05, 3.6914617297729461e-06, 0,
     2.1904560429785152e-05, 3.7390373020575853e-05},
    {"1MB eDRAM", 65, {8, 32, 4}, true,
     6.3023219971631028e-06, 1.3955829153049812e-09, 6.977914576524906e-10,
     3.8828850320137979e-10, 3.6336930902096757e-11, 0,
     0.00014517058791267511, 0.00018615177638833756, 0.030461159286252051,
     0.001483935044444629, 0.0025021814774864367},
    {"1MB eDRAM", 22, {32, 32, 4}, true,
     7.5020504776158895e-07, 7.9499825988903408e-10, 3.9749912994451704e-10,
     6.2925811775133854e-11, 6.882776560189327e-12, 0,
     3.8334388029854432e-05, 2.8080991320352096e-05, 0.001329063301207193,
     0.00050225493811972062, 0.00088093928508130304},
    {"DFF buffer", 65, {2, 8, 0.25}, true,
     3.9538608944039318e-08, 1.9192945012127399e-10, 9.6878730728717346e-11,
     7.8916455857396305e-12, 1.1449092981227534e-12, 0,
     0.011851574172996432, 0.00071598928929964304, 0,
     0.00017529706226178735, 0.00010270780068044521},
    {"DFF buffer", 22, {2, 8, 0.25}, true,
     4.1474479946298843e-09, 1.1536281774626619e-10, 5.9055234923834808e-11,
     5.9336162106220683e-13, 9.4899868279456036e-14, 0,
     5.125458383793919e-05, 6.2541399235363176e-06, 0,
     5.9331313380912642e-05, 3.4705369753295867e-05},
    {"timing-constrained", 65, {8, 32, 2}, true,
     8.9339125717392883e-07, 3.0495393775743849e-10, 1.5247696887871925e-10,
     4.5114890108594803e-11, 6.6760296282918714e-12, 0,
     0.26341563165520793, 0.017850850077520786, 0,
     0.00064946722044133883, 0.00079789583849002163},
    {"timing-constrained", 22, {8, 32, 2}, true,
     1.0212991322554976e-07, 2.1318821448741326e-10, 1.0659410724370663e-10,
     4.4391905392892794e-12, 6.5324830339250548e-13, 0,
     0.0013147276081501621, 0.00020029318959378651, 0,
     0.00021981967461091466, 0.00026948301649826184},
    {"timing-infeasible", 65, {8, 32, 2}, false,
     8.9339125717392883e-07, 3.0495393775743849e-10, 1.5247696887871925e-10,
     4.5114890108594803e-11, 6.6760296282918714e-12, 0,
     0.26341563165520793, 0.017850850077520786, 0,
     0.00064946722044133883, 0.00079789583849002163},
    {"timing-infeasible", 22, {8, 32, 2}, false,
     1.0212991322554976e-07, 2.1318821448741326e-10, 1.0659410724370663e-10,
     4.4391905392892794e-12, 6.5324830339250548e-13, 0,
     0.0013147276081501621, 0.00020029318959378651, 0,
     0.00021981967461091466, 0.00026948301649826184}
};

void
expectPinned(const array::ArrayModel &m, const Pinned &pin)
{
    const std::string what =
        std::string(pin.what) + " @" + std::to_string(pin.nodeNm) + "nm";
    const array::ArrayResult &r = m.result();
    EXPECT_EQ(r.org.ndwl, pin.org.ndwl) << what;
    EXPECT_EQ(r.org.ndbl, pin.org.ndbl) << what;
    EXPECT_EQ(r.org.nspd, pin.org.nspd) << what;
    EXPECT_EQ(m.meetsTiming(), pin.meetsTiming) << what;
    EXPECT_EQ(r.area, pin.area) << what;
    EXPECT_EQ(r.accessDelay, pin.accessDelay) << what;
    EXPECT_EQ(r.cycleTime, pin.cycleTime) << what;
    EXPECT_EQ(r.readEnergy, pin.readEnergy) << what;
    EXPECT_EQ(r.writeEnergy, pin.writeEnergy) << what;
    EXPECT_EQ(r.searchEnergy, pin.searchEnergy) << what;
    EXPECT_EQ(r.subthresholdLeakage, pin.subthresholdLeakage) << what;
    EXPECT_EQ(r.gateLeakage, pin.gateLeakage) << what;
    EXPECT_EQ(r.refreshPower, pin.refreshPower) << what;
    EXPECT_EQ(r.height, pin.height) << what;
    EXPECT_EQ(r.width, pin.width) << what;
}

/** RAII guard: run the parallel engine at @p n workers, then reset. */
struct ThreadCountGuard
{
    explicit ThreadCountGuard(int n) { parallel::setThreadCount(n); }
    ~ThreadCountGuard() { parallel::setThreadCount(0); }
};

} // namespace

// The pins hold serially and with the subarrays and candidates of each
// search built in parallel.
TEST(ArraySearch, WinnerPinnedAcrossArrayShapes)
{
    NoCacheGuard no_cache;
    const tech::Technology t65(65);
    const tech::Technology t22(22, tech::DeviceFlavor::LOP, 340.0);

    const std::vector<array::ArrayParams> shapes = arrayShapes();
    ASSERT_EQ(std::size(kPinned), 2 * shapes.size());
    for (const int threads : {1, 4}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        ThreadCountGuard thread_count(threads);
        const Pinned *pin = kPinned;
        for (const auto &p : shapes) {
            for (const tech::Technology *t : {&t65, &t22}) {
                ASSERT_EQ(p.name, pin->what);
                ASSERT_EQ(t->nodeNm(), pin->nodeNm);
                expectPinned(array::ArrayModel(p, *t), *pin);
                ++pin;
            }
        }
    }
}

TEST(ArraySearch, SearchStatsCountEvaluations)
{
    NoCacheGuard no_cache;
    const tech::Technology t(45);
    array::ArrayParams p;
    p.name = "stats probe";
    p.sizeBytes = 512.0 * 1024;
    p.blockWidthBits = 512;
    p.banks = 2;

    array::resetOptimizerSearchStats();
    { const array::ArrayModel m(p, t); }
    const auto stats = array::optimizerSearchStats();
    // 150 of the 216 grid organizations are feasible for this shape;
    // the search evaluates every one of them, on the 55 distinct
    // subarray shapes they map to (each built once).
    EXPECT_EQ(stats.evaluated, 150u);
    EXPECT_EQ(stats.pruned, 0u);
    EXPECT_EQ(stats.subarrays, 55u);

    array::resetOptimizerSearchStats();
    EXPECT_EQ(array::optimizerSearchStats().evaluated, 0u);
    EXPECT_EQ(array::optimizerSearchStats().subarrays, 0u);
}

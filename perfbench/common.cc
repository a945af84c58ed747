#include "perfbench/common.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <numeric>

#include "array/array_cache.hh"
#include "array/array_model.hh"
#include "chip/component_memo.hh"
#include "study/sweep.hh"

namespace perfbench {

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    return std::accumulate(v.begin(), v.end(), 0.0) / v.size();
}

namespace {

volatile double calibrationSink;

double
kernelOnceMs()
{
    const double t0 = nowSeconds();
    std::vector<double> v(2048);
    for (std::size_t i = 0; i < v.size(); ++i)
        v[i] = 1.0 + i * 1e-3;
    double acc = 0.0;
    for (int r = 0; r < 20; ++r)
        for (double x : v)
            acc += std::log(x + r) * std::sqrt(x) + std::pow(x, 0.37) +
                std::exp(-x);
    std::map<std::string, double> m;
    for (int i = 0; i < 3000; ++i)
        m[std::to_string(i * 7919 % 10007) + "key"] += i;
    for (const auto &kv : m)
        acc += kv.second;
    calibrationSink = acc;
    return (nowSeconds() - t0) * 1e3;
}

} // namespace

double
calibrationMs()
{
    return median({kernelOnceMs(), kernelOnceMs(), kernelOnceMs()});
}

double
HostSpeed::factor(std::size_t k) const
{
    // Marks k and k+1 bound interval k; widen by kWindow on each side.
    const std::size_t lo = k >= kWindow ? k - kWindow : 0;
    const std::size_t hi = std::min(_ms.size(), k + 2 + kWindow);
    return kReferenceCalibrationMs /
        median(std::vector<double>(_ms.begin() + lo, _ms.begin() + hi));
}

Tail
tailOf(std::vector<double> v, double maxPercentile)
{
    Tail t;
    t.samples = v.size();
    if (v.empty())
        return t;
    std::sort(v.begin(), v.end());
    // Nearest rank with ten samples above it; with fewer than eleven
    // samples the maximum is the best available.
    std::size_t rank = v.size() > 10 ? v.size() - 10 : v.size();
    rank = std::min(rank, static_cast<std::size_t>(std::ceil(
                              maxPercentile / 100.0 * v.size())));
    t.value = v[rank - 1];
    t.beyond = v.size() - rank;
    t.percentile = 100.0 * rank / v.size();
    return t;
}

std::string
Tail::describe(const std::string &what) const
{
    char buf[160];
    std::snprintf(buf, sizeof buf, "p%.2f of %zu %s, %zu beyond", percentile,
                  samples, what.c_str(), beyond);
    return buf;
}

void
Digest::add(const std::string &bytes)
{
    for (unsigned char c : bytes) {
        _h ^= c;
        _h *= 0x100000001b3ULL;
    }
    // Length-delimit so ("ab","c") and ("a","bc") differ.
    const std::uint64_t n = bytes.size();
    for (int i = 0; i < 8; ++i) {
        _h ^= (n >> (8 * i)) & 0xff;
        _h *= 0x100000001b3ULL;
    }
}

void
Digest::addDouble(double v)
{
    std::string bytes(sizeof v, '\0');
    std::memcpy(bytes.data(), &v, sizeof v);
    add(bytes);
}

std::string
Digest::hex() const
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(_h));
    return buf;
}

void
Tally::check(bool ok, const std::string &what)
{
    ++attempted;
    if (ok)
        return;
    ++failed;
    if (notes.size() < 8)
        notes.push_back(what);
}

void
emptyTiers()
{
    auto &arrays = mcpat::array::ArrayResultCache::instance();
    arrays.setCacheDir("");
    arrays.clear();
    mcpat::chip::ComponentMemo::instance().clear();
    mcpat::array::resetOptimizerSearchStats();
    mcpat::study::resetSweepEvalStats();
}

bool
startCold()
{
    emptyTiers();
    const auto &arrays = mcpat::array::ArrayResultCache::instance();
    return arrays.stats().entries == 0 && arrays.cacheDir().empty() &&
        mcpat::chip::ComponentMemo::instance().stats().entries == 0;
}

} // namespace perfbench

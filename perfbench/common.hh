/**
 * @file
 * Shared pieces of the repository benchmark: a portable seeded RNG,
 * order statistics, an output digest, operation tallies, and the
 * verified-cold helper that empties every cache tier through public
 * calls.
 */

#ifndef MCPAT_PERFBENCH_COMMON_HH
#define MCPAT_PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/**
 * splitmix64.  Used instead of <random> distributions, whose output is
 * implementation-defined, so a seed names the same inputs everywhere.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : _state(seed) {}

    std::uint64_t next()
    {
        std::uint64_t z = (_state += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, 1). */
    double uniform() { return (next() >> 11) * 0x1.0p-53; }

    /** Uniform in [lo, hi). */
    double uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /** Uniform integer in [0, n). */
    std::size_t below(std::size_t n) { return next() % n; }

  private:
    std::uint64_t _state;
};

/** Seconds on the steady clock since an arbitrary epoch. */
inline double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double median(std::vector<double> v);
double mean(const std::vector<double> &v);

/**
 * Host-speed calibration.  A shared virtual machine changes speed by
 * 20-40% within seconds to minutes as other tenants come and go, and
 * the program's time moves with it.  A fixed kernel that lives in the
 * benchmark (floating-point transcendental math and a string-keyed map,
 * like the model's hot paths) is timed next to every measurement; each
 * timing is multiplied by kReferenceCalibrationMs / (kernel time), which
 * reports it at a reference host speed.  The raw host times are printed
 * beside.  On a 4-vCPU VM, the cold CLI wall of one config varied
 * 4.9-8.4 ms over a minute while its ratio to the kernel stayed within
 * +-8%.
 */
constexpr double kReferenceCalibrationMs = 2.0;

/** Median of three runs of the calibration kernel, ms. */
double calibrationMs();

/**
 * Calibration samples taken at the boundaries of measured intervals.
 */
class HostSpeed
{
  public:
    /** Time the kernel; call before the first and after each interval. */
    void mark() { _ms.push_back(calibrationMs()); }

    /**
     * Factor that scales a time measured in interval @p k to reference
     * speed: from the median of the marks within kWindow of it, since a
     * single mark can catch a momentary stall.
     */
    double factor(std::size_t k) const;

    /** Factor over every interval so far. */
    double overall() const { return kReferenceCalibrationMs / median(_ms); }

    std::size_t intervals() const
    {
        return _ms.empty() ? 0 : _ms.size() - 1;
    }

  private:
    static constexpr std::size_t kWindow = 3;
    std::vector<double> _ms;
};

/**
 * The highest-percentile sample, up to @p maxPercentile, that still has
 * >= 10 samples above it.
 */
struct Tail
{
    double value = 0.0;
    double percentile = 0.0;     ///< 100 * rank / n
    std::size_t beyond = 0;      ///< samples strictly above the rank
    std::size_t samples = 0;

    /** "p99.90 of 10000 <what>, 10 beyond" */
    std::string describe(const std::string &what) const;
};
Tail tailOf(std::vector<double> v, double maxPercentile = 100.0);

/** FNV-1a 64 over a stream of byte strings. */
class Digest
{
  public:
    void add(const std::string &bytes);
    void addDouble(double v);
    std::string hex() const;

  private:
    std::uint64_t _h = 0xcbf29ce484222325ULL;
};

/** Operations attempted and failed, with the first few failure notes. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> notes;

    /** Count one operation; @p ok false records it as failed. */
    void check(bool ok, const std::string &what);
};

/** One printed metric value. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/**
 * Empty every cache tier the model has a public reset for: the array
 * memory tier (and detach the disk tier), the component memo, the
 * optimizer search counters, and the sweep evaluation counters.  The
 * tech interpolation cache has no reset; inputs stay on table nodes so
 * it never holds interpolated entries.
 */
void emptyTiers();

/**
 * emptyTiers(), then confirm both memos report zero entries and no
 * disk tier is attached.  An operation that is meant to start cold
 * counts as failed when this returns false.
 */
bool startCold();

} // namespace perfbench

#endif // MCPAT_PERFBENCH_COMMON_HH

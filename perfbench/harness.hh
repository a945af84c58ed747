/**
 * @file
 * Harnesses the workloads drive the program through: child processes
 * of the CLI, and an in-process evaluation server with closed-loop
 * clients.
 */

#ifndef MCPAT_PERFBENCH_HARNESS_HH
#define MCPAT_PERFBENCH_HARNESS_HH

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "perfbench/common.hh"
#include "study/server.hh"

namespace perfbench {

/** One finished child process. */
struct ProcessRun
{
    bool ok = false;        ///< exited normally with status 0
    double wallMs = 0.0;    ///< spawn to reap
    double maxRssMb = 0.0;  ///< the child's peak resident set
    std::string out;        ///< everything it wrote to stdout
};

/** Run @p argv with stdout to a pipe and stderr to /dev/null. */
ProcessRun runProcess(const std::vector<std::string> &argv);

/**
 * A request stream for the evaluation server: distinct XML entries and,
 * per client, the order in which it requests them.
 */
struct Stream
{
    std::vector<std::string> xml;
    std::vector<std::vector<std::size_t>> perClient;
};

/** What the clients saw in one run of traffic. */
struct Traffic
{
    /** Measured length of each segment (calibration pauses excluded). */
    std::vector<double> segmentS;
    std::uint64_t requests = 0;       ///< replies received
    std::uint64_t ok200 = 0;          ///< status 200 replies
    std::vector<double> rttMs;        ///< every reply
    std::vector<std::uint32_t> rttSegment;  ///< segment of each rttMs
    std::vector<double> cachedRttMs;  ///< replies marked cached
    std::vector<double> evalMs;       ///< timing_ms.wall of uncached replies
    /** Hash of the unescaped report of each entry's first reply
     *  (0 when the entry was never answered). */
    std::vector<std::size_t> reportHash;
};

/** A running in-process EvalServer on a loopback port. */
class Server
{
  public:
    /** Start with @p workers connection workers; throws on failure. */
    explicit Server(int workers);
    ~Server();
    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    std::uint16_t port() const { return _server.boundPort(); }
    mcpat::study::ServerStats stats() const { return _server.stats(); }

  private:
    std::ostream _log{nullptr};  ///< lifecycle lines are discarded
    mcpat::study::EvalServer _server;
};

/** Traffic between two host-speed calibrations, seconds. */
constexpr double kSegmentS = 1.0;

/**
 * Drive @p server with one closed-loop client per stream column for
 * @p seconds of traffic or until each client's stream ends.  With
 * @p speed, traffic pauses every kSegmentS for a calibration mark, and
 * segment k's times scale by speed->factor(k).  Each request is one
 * operation in @p tally; it fails unless the reply has status 200 and
 * the same report bytes as the first reply for the same entry.
 */
Traffic drive(const Server &server, const Stream &stream, double seconds,
              Tally &tally, HostSpeed *speed = nullptr);

/**
 * Compare each answered entry's report with in-process
 * study::evaluate() of the same XML.
 */
void verifyAgainstInProcess(const Stream &stream, const Traffic &s,
                            Tally &tally);

/** Peak resident set of this process, MB. */
double selfPeakRssMb();

} // namespace perfbench

#endif // MCPAT_PERFBENCH_HARNESS_HH

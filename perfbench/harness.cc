#include "perfbench/harness.hh"

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "common/diagnostics.hh"
#include "common/net.hh"
#include "study/eval_core.hh"

extern char **environ;

namespace perfbench {

ProcessRun
runProcess(const std::vector<std::string> &argv)
{
    ProcessRun run;
    int fds[2];
    if (pipe2(fds, O_CLOEXEC) != 0)
        return run;
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], 1);
    posix_spawn_file_actions_addopen(&actions, 2, "/dev/null", O_WRONLY, 0);
    std::vector<char *> args;
    for (const std::string &a : argv)
        args.push_back(const_cast<char *>(a.c_str()));
    args.push_back(nullptr);

    const double t0 = nowSeconds();
    pid_t pid = -1;
    const int rc = posix_spawn(&pid, args[0], &actions, nullptr,
                               args.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    if (rc != 0) {
        close(fds[0]);
        return run;
    }
    char buf[65536];
    for (;;) {
        const ssize_t n = read(fds[0], buf, sizeof buf);
        if (n > 0)
            run.out.append(buf, static_cast<std::size_t>(n));
        else if (n == 0 || errno != EINTR)
            break;
    }
    close(fds[0]);
    int status = 0;
    struct rusage ru = {};
    while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
    }
    run.wallMs = (nowSeconds() - t0) * 1e3;
    run.ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    run.maxRssMb = ru.ru_maxrss / 1024.0;
    return run;
}

double
selfPeakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss / 1024.0;
}

Server::Server(int workers)
{
    mcpat::study::ServerOptions opts;
    opts.endpoint = "0";  // loopback TCP, any free port
    opts.workers = workers;
    std::string error;
    if (!_server.start(opts, _log, &error))
        throw std::runtime_error("cannot start the evaluation server: " +
                                 error);
}

Server::~Server() { _server.stop(); }

namespace {

/** Decode the JSON string body starting at @p pos (after the quote). */
bool
unescape(const std::string &s, std::size_t pos, std::string &out)
{
    out.clear();
    while (pos < s.size()) {
        const char c = s[pos++];
        if (c == '"')
            return true;
        if (c != '\\') {
            out += c;
            continue;
        }
        if (pos >= s.size())
            return false;
        const char e = s[pos++];
        switch (e) {
          case '"': case '\\': case '/': out += e; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos + 4 > s.size())
                return false;
            const unsigned long cp =
                std::strtoul(s.substr(pos, 4).c_str(), nullptr, 16);
            pos += 4;
            if (cp >= 0x80)
                return false;  // reports are ASCII
            out += static_cast<char>(cp);
            break;
          }
          default:
            return false;
        }
    }
    return false;
}

/** One client's view, merged into the Traffic after the run. */
struct ClientLog
{
    std::uint64_t requests = 0;
    std::uint64_t ok200 = 0;
    std::vector<double> rttMs, cachedRttMs, evalMs;
    std::vector<std::uint32_t> rttSegment;
};

/**
 * Cuts a run of traffic into segments: when a segment's time is up, each
 * client finishes its request and waits; the last one to arrive times
 * the calibration kernel (when a HostSpeed is given) and opens the next
 * segment, so calibration never overlaps traffic.
 */
class Segments
{
  public:
    Segments(std::size_t clients, double seconds, double segmentS,
             HostSpeed *speed)
        : _active(clients), _seconds(seconds), _segmentS(segmentS),
          _speed(speed)
    {
        if (_speed)
            _speed->mark();
        open();
    }

    bool expired() const { return nowSeconds() >= _end.load(); }

    /**
     * Wait for the other clients at the end of segment @p index; false
     * when the traffic is over.  Updates @p index to the new segment.
     */
    bool
    next(std::uint32_t &index)
    {
        std::unique_lock<std::mutex> lock(_mutex);
        if (++_waiting == _active)
            close();
        else
            _cv.wait(lock, [&] { return _index != index; });
        index = _index;
        return !_done;
    }

    /** A client stops (its stream ended or its connection failed). */
    void
    leave()
    {
        std::lock_guard<std::mutex> lock(_mutex);
        --_active;
        if (!_done && _waiting == _active && (_waiting > 0 || _active == 0))
            close();
    }

    std::vector<double> lengths() const { return _lengthS; }

  private:
    void
    open()
    {
        _start = nowSeconds();
        _end.store(_start + std::min(_segmentS, _seconds - _total));
    }

    /** Called with the lock held once every active client waits. */
    void
    close()
    {
        const double len = nowSeconds() - _start;
        _lengthS.push_back(len);
        _total += len;
        if (_speed)
            _speed->mark();
        _waiting = 0;
        ++_index;
        _done = _active == 0 || _total >= _seconds;
        open();
        _cv.notify_all();
    }

    std::mutex _mutex;
    std::condition_variable _cv;
    std::size_t _active;
    std::size_t _waiting = 0;
    std::uint32_t _index = 0;
    bool _done = false;
    double _start = 0.0;
    double _total = 0.0;
    std::atomic<double> _end{0.0};
    std::vector<double> _lengthS;
    const double _seconds;
    const double _segmentS;
    HostSpeed *const _speed;
};

} // namespace

Traffic
drive(const Server &server, const Stream &stream, double seconds,
      Tally &tally, HostSpeed *speed)
{
    Traffic s;
    s.reportHash.assign(stream.xml.size(), 0);
    // Escaped report bytes of each entry's first reply; later replies
    // for the entry must match them.  Entries are disjoint per client.
    std::vector<std::size_t> escapedHash(stream.xml.size(), 0);
    const std::size_t clients = stream.perClient.size();
    std::vector<ClientLog> logs(clients);
    std::vector<Tally> tallies(clients);
    const mcpat::net::Endpoint ep =
        mcpat::net::parseEndpoint(std::to_string(server.port()));

    Segments segments(clients, seconds, speed ? kSegmentS : seconds, speed);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            ClientLog &log = logs[c];
            Tally &t = tallies[c];
            std::string error;
            mcpat::net::Connection conn = mcpat::net::connectTo(ep, &error);
            if (!conn.valid()) {
                t.check(false, "connect: " + error);
                segments.leave();
                return;
            }
            std::uint32_t segment = 0;
            std::string line, reply, decoded;
            for (std::size_t entry : stream.perClient[c]) {
                if (segments.expired() && !segments.next(segment))
                    break;
                line = "{\"config_xml\": \"" +
                    mcpat::jsonEscapeString(stream.xml[entry]) + "\"}\n";
                const double r0 = nowSeconds();
                if (!conn.writeAll(line) || !conn.readLine(reply)) {
                    t.check(false, "connection dropped");
                    break;
                }
                const double rtt = (nowSeconds() - r0) * 1e3;
                ++log.requests;
                log.rttMs.push_back(rtt);
                log.rttSegment.push_back(segment);
                const std::string key = "\"report\": \"";
                const std::size_t at = reply.find(key);
                const bool ok = reply.rfind("{\"status\": 200", 0) == 0 &&
                    at != std::string::npos && reply.size() >= 2 &&
                    reply.compare(reply.size() - 2, 2, "\"}") == 0;
                if (!ok) {
                    t.check(false, "reply: " + reply.substr(0, 160));
                    continue;
                }
                ++log.ok200;
                const std::string_view head(reply.data(), at);
                if (head.find("\"cached\": true") != std::string_view::npos) {
                    log.cachedRttMs.push_back(rtt);
                } else {
                    const std::size_t w = head.find("\"wall\": ");
                    if (w != std::string_view::npos)
                        log.evalMs.push_back(
                            std::strtod(reply.c_str() + w + 8, nullptr));
                }
                const std::size_t body = at + key.size();
                const std::size_t h = std::hash<std::string_view>()(
                    std::string_view(reply).substr(
                        body, reply.size() - 2 - body));
                if (escapedHash[entry] == 0) {
                    escapedHash[entry] = h;
                    const bool decodedOk = unescape(reply, body, decoded);
                    s.reportHash[entry] = std::hash<std::string>()(decoded);
                    t.check(decodedOk, "report string does not decode");
                } else {
                    t.check(h == escapedHash[entry],
                            "reply differs from the first for the same XML");
                }
            }
            segments.leave();
        });
    }
    for (std::thread &th : threads)
        th.join();
    s.segmentS = segments.lengths();

    for (std::size_t c = 0; c < clients; ++c) {
        const ClientLog &log = logs[c];
        s.requests += log.requests;
        s.ok200 += log.ok200;
        s.rttMs.insert(s.rttMs.end(), log.rttMs.begin(), log.rttMs.end());
        s.rttSegment.insert(s.rttSegment.end(), log.rttSegment.begin(),
                            log.rttSegment.end());
        s.cachedRttMs.insert(s.cachedRttMs.end(), log.cachedRttMs.begin(),
                             log.cachedRttMs.end());
        s.evalMs.insert(s.evalMs.end(), log.evalMs.begin(), log.evalMs.end());
        tally.attempted += tallies[c].attempted;
        tally.failed += tallies[c].failed;
        for (const std::string &n : tallies[c].notes)
            if (tally.notes.size() < 8)
                tally.notes.push_back(n);
    }
    return s;
}

void
verifyAgainstInProcess(const Stream &stream, const Traffic &s, Tally &tally)
{
    for (std::size_t e = 0; e < stream.xml.size(); ++e) {
        if (s.reportHash[e] == 0)
            continue;
        mcpat::study::EvalRequest req;
        req.configXml = stream.xml[e];
        const mcpat::study::EvalResult r = mcpat::study::evaluate(req);
        tally.check(r.ok &&
                        std::hash<std::string>()(r.reportJson) ==
                            s.reportHash[e],
                    "server report differs from in-process evaluate");
    }
}

} // namespace perfbench

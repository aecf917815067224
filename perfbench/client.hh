/**
 * @file
 * The benchmark's side of the socket: a minimal HTTP/1.1 client that
 * opens a new loopback connection per request (the server answers
 * with Connection: close), and the campaign_server child process it
 * talks to.
 */

#ifndef PERFBENCH_CLIENT_HH
#define PERFBENCH_CLIENT_HH

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/** One completed exchange. */
struct Reply
{
    /** HTTP status, or 0 when the exchange failed on the socket. */
    int status = 0;
    /** Raw header block (status line excluded). */
    std::string headers;
    std::string body;
    /** Connect to last byte, nanoseconds. */
    std::uint64_t ns = 0;

    /** Value of header @p name (case-insensitive), or "". */
    std::string header(const std::string &name) const;
};

/** Send @p method @p target (with @p body for POST) to
 *  127.0.0.1:@p port on a new connection and read to EOF. */
Reply request(std::uint16_t port, const char *method,
              const std::string &target, const std::string &body = {});

/** Monotonic nanoseconds. */
std::uint64_t nowNs();

/** VmHWM (peak resident set) of process @p pid in MiB, or 0. */
double peakRssMb(pid_t pid);

/** Threads of process @p pid, or 0. */
int threadCount(pid_t pid);

/**
 * A campaign_server child. The constructor launches it with the given
 * extra flags and returns once it answers GET /healthz (or leaves
 * ok() false). The destructor stops it: POST /v1/shutdown, then
 * SIGTERM and SIGKILL if it does not exit, always reaping the child.
 */
class ServerProcess
{
  public:
    ServerProcess(const std::string &binary, const std::string &workdir,
                  const std::vector<std::string> &flags);
    ~ServerProcess();
    ServerProcess(const ServerProcess &) = delete;
    ServerProcess &operator=(const ServerProcess &) = delete;

    bool ok() const { return port_ != 0; }
    std::uint16_t port() const { return port_; }
    pid_t pid() const { return pid_; }

    /** Graceful stop; true when the child exited with status 0. */
    bool stop();

  private:
    pid_t pid_ = -1;
    std::uint16_t port_ = 0;
    std::string portFile_;
};

} // namespace perfbench

#endif // PERFBENCH_CLIENT_HH

#include "client.hh"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <thread>

namespace perfbench
{

namespace
{

bool
sendAll(int fd, const std::string &data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        const ssize_t n =
            ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        off += static_cast<std::size_t>(n);
    }
    return true;
}

/** A /proc/<pid>/status field's leading number, or -1. */
long
procStatusField(pid_t pid, const char *field)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    const std::size_t len = std::strlen(field);
    while (std::getline(in, line))
        if (line.compare(0, len, field) == 0 && line.size() > len &&
            line[len] == ':')
            return std::strtol(line.c_str() + len + 1, nullptr, 10);
    return -1;
}

bool
reapWithin(pid_t pid, int ms, int *status)
{
    for (int waited = 0; waited <= ms; waited += 5) {
        const pid_t r = ::waitpid(pid, status, WNOHANG);
        if (r == pid || (r < 0 && errno == ECHILD))
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
}

} // namespace

std::string
Reply::header(const std::string &name) const
{
    std::istringstream in(headers);
    std::string line;
    while (std::getline(in, line)) {
        const std::size_t colon = line.find(':');
        if (colon != name.size())
            continue;
        bool same = true;
        for (std::size_t i = 0; i < colon && same; ++i)
            same = std::tolower(static_cast<unsigned char>(line[i])) ==
                   std::tolower(static_cast<unsigned char>(name[i]));
        if (!same)
            continue;
        std::string v = line.substr(colon + 1);
        while (!v.empty() && (v.front() == ' '))
            v.erase(v.begin());
        while (!v.empty() && (v.back() == '\r' || v.back() == ' '))
            v.pop_back();
        return v;
    }
    return {};
}

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

Reply
request(std::uint16_t port, const char *method, const std::string &target,
        const std::string &body)
{
    std::string msg = std::string(method) + ' ' + target +
                      " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
    if (!body.empty())
        msg += "Content-Type: application/json\r\nContent-Length: " +
               std::to_string(body.size()) + "\r\n";
    msg += "Connection: close\r\n\r\n" + body;

    Reply r;
    const std::uint64_t t0 = nowNs();
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return r;
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    std::string raw;
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof addr) ==
            0 &&
        sendAll(fd, msg)) {
        char buf[16384];
        for (;;) {
            const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                break;
            raw.append(buf, static_cast<std::size_t>(n));
        }
    }
    ::close(fd);
    r.ns = nowNs() - t0;

    const std::size_t head_end = raw.find("\r\n\r\n");
    if (raw.compare(0, 9, "HTTP/1.1 ") != 0 || head_end == std::string::npos)
        return r;
    const std::size_t line_end = raw.find("\r\n");
    r.headers = raw.substr(line_end + 2, head_end - line_end);
    r.body = raw.substr(head_end + 4);
    const std::string len = r.header("Content-Length");
    if (len.empty() || std::strtoull(len.c_str(), nullptr, 10) != r.body.size())
        return r; // truncated: leave status 0
    r.status = std::atoi(raw.c_str() + 9);
    return r;
}

double
peakRssMb(pid_t pid)
{
    const long kb = procStatusField(pid, "VmHWM");
    return kb < 0 ? 0.0 : static_cast<double>(kb) / 1024.0;
}

int
threadCount(pid_t pid)
{
    const long n = procStatusField(pid, "Threads");
    return n < 0 ? 0 : static_cast<int>(n);
}

ServerProcess::ServerProcess(const std::string &binary,
                             const std::string &workdir,
                             const std::vector<std::string> &flags)
{
    static int serial = 0;
    portFile_ = workdir + "/port." + std::to_string(::getpid()) + "." +
                std::to_string(serial++);
    ::unlink(portFile_.c_str());

    std::vector<std::string> args = {binary, "--port-file", portFile_};
    args.insert(args.end(), flags.begin(), flags.end());
    std::vector<char *> argv;
    for (auto &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    pid_ = ::fork();
    if (pid_ == 0) {
        // The child never outlives the benchmark.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        const int devnull = ::open("/dev/null", O_RDWR);
        if (devnull >= 0) {
            ::dup2(devnull, 0);
            ::dup2(devnull, 1);
            ::dup2(devnull, 2);
        }
        ::execv(binary.c_str(), argv.data());
        ::_exit(127);
    }
    if (pid_ < 0)
        return;

    // Wait for the port file, then for /healthz.
    const std::uint64_t deadline = nowNs() + 20'000'000'000ull;
    std::uint16_t port = 0;
    while (port == 0 && nowNs() < deadline) {
        int status = 0;
        if (::waitpid(pid_, &status, WNOHANG) == pid_) {
            pid_ = -1;
            return;
        }
        // The server writes "<port>\n"; only a whole line counts.
        std::ifstream in(portFile_);
        std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
        const unsigned long v = std::strtoul(text.c_str(), nullptr, 10);
        if (!text.empty() && text.back() == '\n' && v > 0 && v < 65536)
            port = static_cast<std::uint16_t>(v);
        else
            std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    while (port != 0 && nowNs() < deadline) {
        if (request(port, "GET", "/healthz").status == 200) {
            port_ = port;
            return;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
}

ServerProcess::~ServerProcess()
{
    stop();
}

bool
ServerProcess::stop()
{
    if (pid_ <= 0)
        return false;
    int status = -1;
    if (port_ != 0)
        request(port_, "POST", "/v1/shutdown");
    bool clean = reapWithin(pid_, 10000, &status);
    if (!clean) {
        ::kill(pid_, SIGTERM);
        if (!reapWithin(pid_, 5000, &status)) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, &status, 0);
        }
    }
    pid_ = -1;
    port_ = 0;
    ::unlink(portFile_.c_str());
    return clean && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

} // namespace perfbench

#include "server_proc.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

ServeProcess::ServeProcess(const std::string& binary,
                           const std::string& manifest,
                           const std::vector<std::string>& extra_args,
                           const std::string& work_dir, double timeout_s)
{
    const std::string port_file = work_dir + "/serve.port";
    std::remove(port_file.c_str());
    const std::string log_file = work_dir + "/serve.log";

    std::vector<std::string> args{binary, manifest, "--listen",
                                  "127.0.0.1:0", "--port-file", port_file};
    args.insert(args.end(), extra_args.begin(), extra_args.end());
    std::vector<char*> argv;
    for (std::string& a : args) {
        argv.push_back(a.data());
    }
    argv.push_back(nullptr);

    const pid_t parent = getpid();
    pid_ = fork();
    if (pid_ < 0) {
        throw std::runtime_error("fork failed");
    }
    if (pid_ == 0) {
        // The server must never outlive the benchmark.
        prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (getppid() != parent) {
            _exit(127);
        }
        if (std::freopen(log_file.c_str(), "w", stdout) == nullptr ||
            std::freopen(log_file.c_str(), "a", stderr) == nullptr) {
            _exit(127);
        }
        execv(argv[0], argv.data());
        _exit(127);
    }

    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(timeout_s);
    for (;;) {
        std::ifstream in(port_file);
        long port = 0;
        if (in >> port && port > 0 && port < 65536) {
            port_ = static_cast<std::uint16_t>(port);
            return;
        }
        int status = 0;
        if (waitpid(pid_, &status, WNOHANG) == pid_) {
            pid_ = -1;
            throw std::runtime_error("shredder_serve exited before "
                                     "listening (see " + log_file + ")");
        }
        if (std::chrono::steady_clock::now() > deadline) {
            stop();
            throw std::runtime_error("shredder_serve did not listen in time");
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
}

ServeProcess::~ServeProcess()
{
    stop();
}

void
ServeProcess::stop()
{
    if (pid_ <= 0) {
        return;
    }
    kill(pid_, SIGTERM);
    for (int i = 0; i < 500; ++i) {
        int status = 0;
        if (waitpid(pid_, &status, WNOHANG) == pid_) {
            pid_ = -1;
            return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    kill(pid_, SIGKILL);
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
}

double
ServeProcess::cpu_seconds() const
{
    // The first field of /proc/<pid>/task/<tid>/schedstat is the time the
    // thread has run, in nanoseconds: exact, where utime and stime are
    // sampled at the timer tick, and without the time the hypervisor gave
    // to other guests (steal).
    const std::string dir = "/proc/" + std::to_string(pid_) + "/task";
    std::error_code ec;
    double total_ns = 0.0;
    for (const auto& task : std::filesystem::directory_iterator(dir, ec)) {
        std::ifstream in(task.path() / "schedstat");
        double ns = 0.0;
        if (in >> ns) {
            total_ns += ns;
        }
    }
    if (ec) {
        throw std::runtime_error("cannot read the server's CPU time");
    }
    return total_ns / 1e9;
}

Scrape
scrape_metrics(std::uint16_t port)
{
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        throw std::runtime_error("socket failed");
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
        close(fd);
        throw std::runtime_error("cannot connect for /metrics");
    }
    const std::string req =
        "GET /metrics HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n";
    if (send(fd, req.data(), req.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(req.size())) {
        close(fd);
        throw std::runtime_error("cannot send /metrics request");
    }
    std::string body;
    char buf[16384];
    for (;;) {
        const ssize_t got = recv(fd, buf, sizeof buf, 0);
        if (got <= 0) {
            break;
        }
        body.append(buf, static_cast<std::size_t>(got));
    }
    close(fd);
    const auto head_end = body.find("\r\n\r\n");
    if (body.rfind("HTTP/1.", 0) != 0 || head_end == std::string::npos ||
        body.find(" 200 ") > head_end) {
        throw std::runtime_error("bad /metrics response");
    }
    Scrape out;
    std::istringstream lines(body.substr(head_end + 4));
    std::string line;
    while (std::getline(lines, line)) {
        if (line.empty() || line[0] == '#') {
            continue;
        }
        const auto sp = line.rfind(' ');
        if (sp == std::string::npos) {
            continue;
        }
        out[line.substr(0, sp)] = std::strtod(line.c_str() + sp + 1, nullptr);
    }
    return out;
}

double
family_sum(const Scrape& scrape, const std::string& name)
{
    double sum = 0.0;
    for (const auto& [series, value] : scrape) {
        if (series == name || series.rfind(name + "{", 0) == 0) {
            sum += value;
        }
    }
    return sum;
}

std::map<double, double>
histogram_buckets(const Scrape& scrape, const std::string& family)
{
    std::map<double, double> out;
    const std::string prefix = family + "_bucket{";
    for (const auto& [series, value] : scrape) {
        if (series.rfind(prefix, 0) != 0) {
            continue;
        }
        const auto le = series.find("le=\"");
        if (le == std::string::npos) {
            continue;
        }
        const std::string bound =
            series.substr(le + 4, series.find('"', le + 4) - le - 4);
        const double b = bound == "+Inf"
                             ? std::numeric_limits<double>::infinity()
                             : std::strtod(bound.c_str(), nullptr);
        out[b] += value;
    }
    return out;
}

double
histogram_quantile(const std::map<double, double>& cumulative, double q)
{
    if (cumulative.empty()) {
        return 0.0;
    }
    const double total = cumulative.rbegin()->second;
    if (total <= 0.0) {
        return 0.0;
    }
    const double want = q * total;
    double prev_bound = 0.0;
    double prev_count = 0.0;
    for (const auto& [bound, count] : cumulative) {
        if (count >= want) {
            if (std::isinf(bound)) {
                return prev_bound;
            }
            // Linear within the bucket, as Prometheus does.
            const double in_bucket = count - prev_count;
            const double frac =
                in_bucket > 0.0 ? (want - prev_count) / in_bucket : 1.0;
            return prev_bound + (bound - prev_bound) * frac;
        }
        prev_bound = bound;
        prev_count = count;
    }
    return prev_bound;
}

}  // namespace perfbench

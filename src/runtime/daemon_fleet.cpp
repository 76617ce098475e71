#include "runtime/daemon_fleet.hpp"

#ifdef __linux__

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

namespace snowkit {
namespace {

/// snowkit_server from the same build directory as this executable.
std::string server_binary() {
  std::error_code ec;
  const auto self = std::filesystem::read_symlink("/proc/self/exe", ec);
  if (ec) throw std::runtime_error("DaemonFleet: cannot resolve /proc/self/exe");
  const auto bin = self.parent_path() / "snowkit_server";
  if (!std::filesystem::exists(bin)) {
    throw std::runtime_error("DaemonFleet: " + bin.string() +
                             " not found (build the snowkit_server target)");
  }
  return bin.string();
}

bool accepts(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) return false;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return false;
  const bool ok = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0;
  ::close(fd);
  return ok;
}

bool exited_zero(int status) { return WIFEXITED(status) && WEXITSTATUS(status) == 0; }

}  // namespace

DaemonFleet::DaemonFleet(FleetConfig fleet, DaemonFiles files)
    : fleet_(std::move(fleet)), files_(std::move(files)) {}

DaemonFleet::~DaemonFleet() {
  for (const pid_t pid : pids_) {
    if (pid > 0) ::kill(pid, SIGTERM);
  }
  reap(/*grace_ms=*/5000);
  std::error_code ec;
  std::filesystem::remove(files_.config, ec);
  for (std::size_t i = 0; i < pids_.size() && !files_.stats_prefix.empty(); ++i) {
    std::filesystem::remove(stats_path(i), ec);
  }
}

void DaemonFleet::spawn() {
  {
    std::ofstream f(files_.config, std::ios::trunc);
    if (!f) throw std::runtime_error("DaemonFleet: cannot write " + files_.config);
    f << fleet_text(fleet_);
  }
  const std::string bin = server_binary();
  const pid_t parent = ::getpid();
  std::fflush(nullptr);  // a forked child must not re-emit buffered output
  for (std::size_t i = 0; i < fleet_.server_processes(); ++i) {
    std::vector<std::string> args = {bin, "--config", files_.config, "--index",
                                     std::to_string(i), "--quiet"};
    if (!files_.audit_dir.empty()) args.insert(args.end(), {"--audit-dir", files_.audit_dir});
    if (!files_.wal_dir.empty()) args.insert(args.end(), {"--wal-dir", files_.wal_dir});
    if (!files_.stats_prefix.empty()) args.insert(args.end(), {"--stats-json", stats_path(i)});
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("DaemonFleet: fork failed");
    if (pid == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(1);  // the parent died before prctl
      ::execv(bin.c_str(), argv.data());
      std::perror("execv snowkit_server");
      ::_exit(127);
    }
    pids_.push_back(pid);
  }
}

std::string DaemonFleet::stats_path(std::size_t i) const {
  return files_.stats_prefix + "." + std::to_string(i) + ".json";
}

bool DaemonFleet::wait_listening(std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (std::size_t i = 0; i < pids_.size(); ++i) {
    while (!accepts(fleet_.processes[i].host, fleet_.processes[i].port)) {
      if (any_exited() || std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  return !any_exited();
}

bool DaemonFleet::any_exited() {
  for (pid_t& pid : pids_) {
    if (pid > 0 && ::waitpid(pid, nullptr, WNOHANG) == pid) {
      pid = -1;
      lost_ = true;
    }
  }
  return lost_;
}

void DaemonFleet::kill(std::size_t i) {
  pid_t& pid = pids_.at(i);
  if (pid <= 0) return;
  ::kill(pid, SIGKILL);
  ::waitpid(pid, nullptr, 0);
  pid = -1;
}

bool DaemonFleet::terminate(std::size_t i) {
  pid_t& pid = pids_.at(i);
  if (pid <= 0 || ::kill(pid, SIGTERM) != 0) return false;
  int status = 0;
  const bool reaped = ::waitpid(pid, &status, 0) == pid;
  pid = -1;
  return reaped && exited_zero(status);
}

bool DaemonFleet::reap(int grace_ms) {
  bool clean = !lost_;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(grace_ms);
  for (pid_t& pid : pids_) {
    if (pid <= 0) continue;
    int status = 0;
    pid_t r = 0;
    while ((r = ::waitpid(pid, &status, WNOHANG)) == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (r == 0) {  // a straggler past the grace window
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
    }
    clean = clean && r == pid && exited_zero(status);
    pid = -1;
  }
  return clean;
}

std::map<std::string, double> DaemonFleet::stats(std::size_t i) const {
  // The daemon writes a flat JSON object, one `"key": number` per line.
  std::map<std::string, double> out;
  std::ifstream f(stats_path(i));
  std::string line;
  while (std::getline(f, line)) {
    char key[128];
    double v = 0;
    if (std::sscanf(line.c_str(), " \"%127[^\"]\": %lf", key, &v) == 2) out[key] = v;
  }
  return out;
}

std::map<std::string, double> DaemonFleet::summed_stats() const {
  std::map<std::string, double> sum;
  for (std::size_t i = 0; i < pids_.size(); ++i) {
    for (const auto& [key, v] : stats(i)) sum[key] += v;
  }
  return sum;
}

}  // namespace snowkit

#endif  // __linux__

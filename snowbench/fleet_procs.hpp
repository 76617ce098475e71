// FleetProcs: the snowkit_server daemons of one benchmark fleet.
//
// Writes the fleet file every process reads, fork/execs one daemon per
// server process (each pinned to its own CPU), waits until each accepts
// connections, samples their CPU clocks, and reaps them — killing
// stragglers — on every exit path.  Each daemon dies with this process
// (PR_SET_PDEATHSIG), so an aborted benchmark leaves nothing running.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runtime/fleet.hpp"

namespace snowkit::suite {

/// Files the daemons of one fleet read and write; all inside the run's
/// work directory.
struct DaemonFiles {
  std::string config;        ///< the fleet file.
  std::string audit_dir;     ///< "" = flight recorder off.
  std::string wal_dir;       ///< "" = no WAL (replicas 1).
  std::string stats_prefix;  ///< daemon i writes <prefix>.<i>.json at clean shutdown.
};

class FleetProcs {
 public:
  /// Daemon i runs pinned to cpus[i] (unpinned past the end of `cpus`).
  FleetProcs(FleetConfig fleet, DaemonFiles files, std::vector<int> cpus)
      : fleet_(std::move(fleet)), files_(std::move(files)), cpus_(std::move(cpus)) {}
  ~FleetProcs() {
    reap(/*grace_ms=*/5000);
    std::error_code ec;
    std::filesystem::remove(files_.config, ec);
  }
  FleetProcs(const FleetProcs&) = delete;
  FleetProcs& operator=(const FleetProcs&) = delete;

  /// Writes the fleet file and spawns every daemon.  Throws on failure; the
  /// destructor reaps whatever was already spawned.
  void spawn() {
    {
      std::ofstream f(files_.config, std::ios::trunc);
      if (!f) throw std::runtime_error("cannot write " + files_.config);
      f << fleet_text(fleet_);
    }
    const std::string bin = server_binary();
    const pid_t parent = ::getpid();
    std::fflush(nullptr);  // a forked child must not re-emit buffered output
    for (std::size_t i = 0; i < fleet_.server_processes(); ++i) {
      std::vector<std::string> args = {bin, "--config", files_.config, "--index",
                                       std::to_string(i), "--quiet", "--stats-json",
                                       files_.stats_prefix + "." + std::to_string(i) + ".json"};
      if (!files_.audit_dir.empty()) {
        args.insert(args.end(), {"--audit-dir", files_.audit_dir});
      }
      if (!files_.wal_dir.empty()) args.insert(args.end(), {"--wal-dir", files_.wal_dir});
      std::vector<char*> argv;
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);

      const pid_t pid = ::fork();
      if (pid < 0) throw std::runtime_error("fork failed");
      if (pid == 0) {
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != parent) ::_exit(1);
        if (i < cpus_.size()) {
          cpu_set_t set;
          CPU_ZERO(&set);
          CPU_SET(cpus_[i], &set);
          if (::sched_setaffinity(0, sizeof set, &set) != 0) ::_exit(126);
        }
        ::execv(bin.c_str(), argv.data());
        std::perror("execv snowkit_server");
        ::_exit(127);
      }
      Daemon d;
      d.pid = pid;
      d.port = fleet_.processes[i].port;
      if (::clock_getcpuclockid(pid, &d.clock) != 0) d.clock = -1;
      daemons_.push_back(d);
    }
  }

  /// Blocks until every daemon accepts TCP connections on its fleet port
  /// (it binds only after building its protocol), so a client started
  /// afterwards connects on its first dial instead of on a backoff step.
  bool wait_listening(std::chrono::milliseconds timeout) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    for (const Daemon& d : daemons_) {
      while (!accepts(d.port)) {
        if (any_exited() || std::chrono::steady_clock::now() > deadline) return false;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    return true;
  }

  /// True if any daemon has exited (mid-run that means the fleet is broken).
  bool any_exited() {
    for (Daemon& d : daemons_) {
      if (d.pid <= 0) continue;
      int status = 0;
      if (::waitpid(d.pid, &status, WNOHANG) == d.pid) {
        d.pid = -1;
        lost_ = true;
        return true;
      }
    }
    return false;
  }

  /// User+system CPU seconds of the live daemons, nanosecond resolution.
  double cpu_s() const {
    double sum = 0;
    for (const Daemon& d : daemons_) {
      timespec ts{};
      if (d.pid > 0 && d.clock != -1 && ::clock_gettime(d.clock, &ts) == 0) {
        sum += static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
      }
    }
    return sum;
  }

  /// Waits for every daemon to exit; SIGKILLs stragglers past the grace
  /// window.  True iff all exited 0 on their own, after the run.
  bool reap(int grace_ms) {
    bool clean = !lost_;
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(grace_ms);
    for (Daemon& d : daemons_) {
      if (d.pid <= 0) continue;
      int status = 0;
      while (true) {
        const pid_t r = ::waitpid(d.pid, &status, WNOHANG);
        if (r == d.pid) {
          clean = clean && WIFEXITED(status) && WEXITSTATUS(status) == 0;
          break;
        }
        if (r < 0) {
          clean = false;
          break;
        }
        if (std::chrono::steady_clock::now() >= deadline) {
          ::kill(d.pid, SIGKILL);
          ::waitpid(d.pid, &status, 0);
          clean = false;
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      d.pid = -1;
    }
    return clean;
  }

  /// Each daemon's quiesced TransportStats (its --stats-json file), summed
  /// key by key.  Call after reap(); a missing file contributes nothing.
  std::map<std::string, double> summed_stats() const {
    std::map<std::string, double> sum;
    for (std::size_t i = 0; i < daemons_.size(); ++i) {
      std::ifstream f(files_.stats_prefix + "." + std::to_string(i) + ".json");
      std::string line;
      while (std::getline(f, line)) {
        const auto q1 = line.find('"');
        const auto q2 = line.find('"', q1 + 1);
        const auto colon = line.find(':', q2);
        if (q1 == std::string::npos || q2 == std::string::npos || colon == std::string::npos) {
          continue;
        }
        std::istringstream value(line.substr(colon + 1));
        double v = 0;
        if (value >> v) sum[line.substr(q1 + 1, q2 - q1 - 1)] += v;
      }
    }
    return sum;
  }

 private:
  struct Daemon {
    pid_t pid{-1};
    std::uint16_t port{0};
    clockid_t clock{-1};
  };

  /// snowkit_server from the same build directory as this executable.
  static std::string server_binary() {
    std::error_code ec;
    const auto self = std::filesystem::read_symlink("/proc/self/exe", ec);
    if (ec) throw std::runtime_error("cannot resolve /proc/self/exe");
    const auto bin = self.parent_path() / "snowkit_server";
    if (!std::filesystem::exists(bin)) {
      throw std::runtime_error(bin.string() + " not found (build the snowkit_server target)");
    }
    return bin.string();
  }

  static bool accepts(std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    const bool ok = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0;
    ::close(fd);
    return ok;
  }

  FleetConfig fleet_;
  DaemonFiles files_;
  std::vector<int> cpus_;
  std::vector<Daemon> daemons_;
  bool lost_{false};  ///< a daemon exited before reap().
};

}  // namespace snowkit::suite

// DaemonFleet: the snowkit_server daemons of one multi-process fleet.
//
// Writes the fleet file (runtime/fleet.hpp) every process reads, fork/execs
// one `snowkit_server --quiet` per server process, waits until each accepts
// connections, and reaps them — killing stragglers — on every exit path.
// The daemon binary is the snowkit_server beside the running executable
// (every build puts it next to the tests and bench_harness).  Each daemon
// dies with the thread that spawned it (PR_SET_PDEATHSIG), so an aborted
// test or bench leaves nothing running.  The client process is the caller:
// it builds its NetRuntime from the same FleetConfig at client_index().
//
// Linux-only, like NetRuntime.
#pragma once

#ifdef __linux__

#include <sys/types.h>

#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "runtime/fleet.hpp"

namespace snowkit {

/// Files the daemons of one fleet read and write.  "" turns a feature off.
/// Daemons may share audit_dir and wal_dir: chunk files are named per
/// process (`audit.p<i>.<seq>.auditchunk`) and WALs per node (`node-<id>.wal`).
struct DaemonFiles {
  std::string config;        ///< the fleet file spawn() writes.
  std::string audit_dir;     ///< "" = flight recorder off.
  std::string wal_dir;       ///< "" = no WAL (replicas 1).
  std::string stats_prefix;  ///< daemon i writes <prefix>.<i>.json at clean shutdown.
};

class DaemonFleet {
 public:
  DaemonFleet(FleetConfig fleet, DaemonFiles files);
  /// SIGTERMs the daemons still running, reaps them, and removes the fleet
  /// file and the stats files.
  ~DaemonFleet();
  DaemonFleet(const DaemonFleet&) = delete;
  DaemonFleet& operator=(const DaemonFleet&) = delete;

  /// Writes the fleet file and spawns every daemon.  Throws on failure; the
  /// destructor reaps whatever was already spawned.
  void spawn();

  /// Blocks until every daemon accepts TCP connections on its fleet port
  /// (it binds only after building its protocol).  False at the timeout, or
  /// as soon as any daemon exits.
  bool wait_listening(std::chrono::milliseconds timeout);

  /// True once any daemon has exited on its own (mid-run that means the
  /// fleet is broken).  kill() and terminate() do not count.
  bool any_exited();

  /// SIGKILLs daemon i and reaps it: a crash, with no shutdown path.
  void kill(std::size_t i);

  /// SIGTERMs daemon i and waits for it.  True iff it exited 0 (SIGTERM
  /// takes the daemon's clean-shutdown path, sealing its audit chunks).
  bool terminate(std::size_t i);

  /// Waits for every daemon still running to exit; SIGKILLs stragglers past
  /// the grace window.  True iff each of them exited 0 on its own and none
  /// was seen exiting early by any_exited().
  bool reap(int grace_ms);

  /// Daemon i's quiesced TransportStats (its --stats-json file) by key.
  /// Call after the daemon exited; a missing file yields an empty map.
  std::map<std::string, double> stats(std::size_t i) const;
  /// stats() of every daemon, summed key by key.
  std::map<std::string, double> summed_stats() const;

  std::size_t size() const { return pids_.size(); }

 private:
  std::string stats_path(std::size_t i) const;

  FleetConfig fleet_;
  DaemonFiles files_;
  std::vector<pid_t> pids_;  ///< daemon i's pid; -1 once reaped.
  bool lost_{false};  ///< any_exited() saw a daemon exit.
};

}  // namespace snowkit

#endif  // __linux__

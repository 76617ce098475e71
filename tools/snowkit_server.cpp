// snowkit_server: hosts one fleet process's share of a protocol deployment.
//
//   snowkit_server --config fleet.cfg --index 0
//
// Reads the SAME fleet file every other process reads (runtime/fleet.hpp),
// builds the named registry protocol on a NetRuntime owning this process's
// node partition (server shards split contiguously; the last process hosts
// the clients), serves traffic until a SHUTDOWN frame arrives from the
// driving client, then exits 0.  Any registry protocol works unmodified —
// the daemon contains zero per-protocol code.
//
// With --audit-dir the daemon records every message it sends or delivers
// through the flight recorder (src/audit), writing snowkit-audit-chunk-v1
// files for the offline snowkit_audit pipeline.  SIGTERM and SIGINT take
// the same clean-exit path as a SHUTDOWN frame — open audit chunks are
// flushed and sealed, so a terminated daemon never leaves a torn chunk.
//
// The client side of a fleet is usually `bench_harness --scenario
// net_loopback` (which spawns three of these on 127.0.0.1), but any program
// may build the same FleetConfig at client_index() and drive TxnClient /
// WorkloadDriver against the remote fleet.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#ifdef __linux__
#include <unistd.h>
#endif

#include "audit/capture.hpp"
#include "core/run_workload.hpp"
#include "core/system.hpp"
#include "runtime/fleet.hpp"

namespace {

void usage() {
  std::printf(
      "usage: snowkit_server --config FILE --index N [--transport CSV]\n"
      "                      [--audit-dir DIR] [--quiet]\n"
      "\n"
      "  --config FILE    fleet file (see src/runtime/fleet.hpp for the format)\n"
      "  --index N        which fleet process this daemon is (0-based; must be\n"
      "                   one of the 'server' lines, not the client)\n"
      "  --transport CSV  TransportOptions overrides layered on the fleet file's\n"
      "                   transport line, same key=value[,key=value] grammar\n"
      "                   (e.g. io_threads=2,coalesce_max_frames=128); validated\n"
      "                   fail-fast before the runtime starts\n"
      "  --audit-dir DIR  record message traffic as snowkit-audit-chunk-v1\n"
      "                   files in DIR (see docs/AUDIT.md)\n"
      "  --wal-dir DIR    replicated fleets only (replicas 2): write each\n"
      "                   hosted replica's write-ahead log to DIR/node-N.wal\n"
      "                   so a SIGKILLed daemon recovers its shard on restart\n"
      "  --audit-sample N capture 1 of every N messages (default 1 = all)\n"
      "  --stats-json F   on clean shutdown, write the quiesced TransportStats\n"
      "                   snapshot to F as a flat JSON object (the same keys as\n"
      "                   the bench extras, e.g. tcp_reconnects) — churn tests\n"
      "                   read the SERVER side of a drop from this file\n"
      "  --quiet          suppress the startup/shutdown banner\n");
}

}  // namespace

int main(int argc, char** argv) {
  // The transport's own socket writes use MSG_NOSIGNAL, but this daemon
  // should never die of SIGPIPE from any fd (e.g. stderr piped to a dead
  // reader under a supervisor); EPIPE error returns are always preferable.
  std::signal(SIGPIPE, SIG_IGN);

  std::string config_path;
  std::string transport_csv;
  std::string audit_dir;
  std::string wal_dir;
  std::string stats_json;
  long audit_sample = 1;
  long index = -1;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", arg.c_str());
        std::exit(1);
      }
      return argv[++i];
    };
    if (arg == "--config") {
      config_path = next();
    } else if (arg == "--index") {
      // Strict parse: "--index two" must be an argument error, not a silent
      // index 0 impersonating fleet process 0.
      const char* value = next();
      char* end = nullptr;
      index = std::strtol(value, &end, 10);
      if (end == value || *end != '\0' || index < 0) {
        std::fprintf(stderr, "error: --index value '%s' is not a non-negative integer\n", value);
        return 1;
      }
    } else if (arg == "--transport") {
      transport_csv = next();
    } else if (arg == "--audit-dir") {
      audit_dir = next();
    } else if (arg == "--wal-dir") {
      wal_dir = next();
    } else if (arg == "--stats-json") {
      stats_json = next();
    } else if (arg == "--audit-sample") {
      const char* value = next();
      char* end = nullptr;
      audit_sample = std::strtol(value, &end, 10);
      if (end == value || *end != '\0' || audit_sample < 1) {
        std::fprintf(stderr, "error: --audit-sample value '%s' is not a positive integer\n",
                     value);
        return 1;
      }
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "error: unknown argument %s\n\n", arg.c_str());
      usage();
      return 1;
    }
  }
  if (config_path.empty() || index < 0) {
    usage();
    return 1;
  }

  try {
    const snowkit::FleetConfig fleet = snowkit::parse_fleet_file(config_path);
    if (static_cast<std::size_t>(index) >= fleet.client_index()) {
      std::fprintf(stderr,
                   "error: index %ld is not a server process (fleet has %zu server "
                   "processes; the client process drives itself)\n",
                   index, fleet.server_processes());
      return 1;
    }

#ifdef __linux__
    // SIGTERM/SIGINT must flush audit chunks, so they cannot be handled in
    // an async-signal context (the flush allocates and locks).  Block them
    // here — BEFORE anything spawns a thread (AuditCapture's flusher,
    // NetRuntime's workers all inherit the mask) — then sigwait() on a
    // dedicated thread that routes the signal into the normal clean-exit
    // path.  SIGUSR1 is the private "run ended normally, stand down" wakeup.
    sigset_t sigs;
    sigemptyset(&sigs);
    sigaddset(&sigs, SIGTERM);
    sigaddset(&sigs, SIGINT);
    sigaddset(&sigs, SIGUSR1);
    pthread_sigmask(SIG_BLOCK, &sigs, nullptr);
#endif

    snowkit::NetOptions net_opts = fleet.net_options(static_cast<std::size_t>(index));
    if (!transport_csv.empty()) {
      // Layered on top of the fleet file's transport line; parse_csv
      // re-validates the combined result, so a bad override fails here with
      // a named field instead of misconfiguring a running daemon.
      net_opts.transport.parse_csv(transport_csv);
    }
    snowkit::NetRuntime rt(std::move(net_opts));

    std::unique_ptr<snowkit::audit::AuditCapture> capture;
    if (!audit_dir.empty()) {
      snowkit::audit::CaptureOptions copts;
      copts.dir = audit_dir;
      copts.process_index = static_cast<std::uint32_t>(index);
      copts.protocol = fleet.protocol;
      copts.num_servers = static_cast<std::uint32_t>(fleet.system.server_count());
      copts.fleet_text = snowkit::fleet_text(fleet);
      copts.sample_every = static_cast<std::uint64_t>(audit_sample);
      capture = std::make_unique<snowkit::audit::AuditCapture>(copts);
      rt.set_observer(capture.get());
    }

    snowkit::HistoryRecorder rec(fleet.system.num_objects);
    snowkit::BuildOptions options = fleet.options;
    // FileWals open lazily, so only the replicas this process owns ever
    // create files under --wal-dir.  The directory itself is created here:
    // the first append must not abort on a fresh deployment path.
    if (!wal_dir.empty()) {
      std::filesystem::create_directories(wal_dir);
      options.set("wal_dir", wal_dir);
    }
    auto sys = snowkit::build_protocol(fleet.protocol, rt, rec, fleet.system, options);

    rt.start();

#ifdef __linux__
    // Started after rt.start(), which throws when the listen port is taken:
    // a joinable thread must not be unwound past.  A signal that arrives
    // earlier stays pending (blocked above) until sigwait() consumes it.
    std::thread signal_thread([&rt, &sigs] {
      int sig = 0;
      while (sigwait(&sigs, &sig) != 0) {
      }
      if (sig != SIGUSR1) rt.request_shutdown();
    });
#endif

    if (!quiet) {
      std::size_t owned = 0;
      for (snowkit::NodeId id = 0; id < rt.node_count(); ++id) {
        if (rt.owns(id)) ++owned;
      }
      std::printf("[snowkit_server %ld] %s on %s:%u — hosting %zu of %zu nodes%s\n", index,
                  fleet.protocol.c_str(), fleet.processes[index].host.c_str(),
                  fleet.processes[index].port, owned, rt.node_count(),
                  audit_dir.empty() ? "" : " (audit capture on)");
      std::fflush(stdout);
    }

    rt.run_until_shutdown();

#ifdef __linux__
    // Wake the signal thread if no signal ever arrived: the process-directed
    // SIGUSR1 stays pending until its sigwait() consumes it.
    kill(getpid(), SIGUSR1);
    signal_thread.join();
#endif

    rt.stop();
    if (capture) capture->close();
    if (!stats_json.empty()) {
      // Quiesced snapshot (the runtime is stopped), so the counters are
      // exact.  Every extras value is numeric; emit numbers so jq callers
      // can compare without tonumber gymnastics.
      if (std::FILE* f = std::fopen(stats_json.c_str(), "w")) {
        std::fputs("{\n", f);
        const auto extras = rt.transport_stats().extras();
        for (std::size_t i = 0; i < extras.size(); ++i) {
          std::fprintf(f, "  \"%s\": %s%s\n", extras[i].first.c_str(),
                       extras[i].second.c_str(), i + 1 < extras.size() ? "," : "");
        }
        std::fputs("}\n", f);
        std::fclose(f);
      } else {
        std::fprintf(stderr, "snowkit_server: cannot write --stats-json %s\n",
                     stats_json.c_str());
      }
    }
    if (!quiet) {
      const snowkit::TransportStats stats = rt.transport_stats();
      std::printf("[snowkit_server %ld] shutdown (frames in %llu, bytes in %llu / out %llu, "
                  "%.2f frames/syscall over %zu io thread(s))\n",
                  index, static_cast<unsigned long long>(stats.frames_received),
                  static_cast<unsigned long long>(stats.bytes_received),
                  static_cast<unsigned long long>(stats.bytes_sent),
                  stats.frames_per_syscall(), stats.epoll_wakeups.size());
      if (capture) {
        const auto cs = capture->stats();
        std::printf("[snowkit_server %ld] audit: %llu events, %llu drops, %llu bytes in %llu "
                    "chunk(s)\n",
                    index, static_cast<unsigned long long>(cs.events),
                    static_cast<unsigned long long>(cs.drops),
                    static_cast<unsigned long long>(cs.bytes_written),
                    static_cast<unsigned long long>(cs.chunks));
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "snowkit_server: %s\n", e.what());
    return 1;
  }
  return 0;
}

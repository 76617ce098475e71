// Scenario "net_loopback": the repo's first TRUE-network datapoint — every
// measured transaction crosses real TCP sockets between real OS processes.
//
// Per protocol line, the scenario deploys the fleet the paper's model
// describes (§2: clients and servers as separate processes over asynchronous
// channels): DaemonFleet (runtime/daemon_fleet.hpp) writes the fleet file
// and launches THREE `snowkit_server` daemons hosting the server shards on
// 127.0.0.1; the scenario runs the client process in-process on a
// NetRuntime and drives an OPEN-LOOP fixed-rate workload through the
// unified TxnClient API — unchanged protocol code, unchanged driver,
// snowkit-wire-v9 frames on the wire.
//
// Each protocol is measured TWICE by default: a PACED open-loop run (5k
// arrivals/s, sojourn percentiles — the longitudinal series, comparable
// with every earlier checkin of BENCH_net_loopback.json) and an UNPACED
// closed-loop SATURATION run (64 client nodes, io_threads=2 — the honest
// transport ceiling, the headline datapoint).  `--rate 0` keeps only the
// saturation runs, `--rate R` only a paced run at R ops/s.
//
// JSON records carry wall-clock ops/sec and latency percentiles plus the
// full typed TransportStats snapshot (syscalls, frames/syscall, writev
// bytes, epoll wakeups) as extras — runtime/transport_stats.hpp owns the
// key names, CI's net-smoke jq gates read them.  `ctest -R
// net_loopback_smoke` is the same contract locally.
#include "bench_util.hpp"

#ifdef __linux__
#include <unistd.h>
#endif

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <thread>

#include "audit/capture.hpp"
#include "runtime/daemon_fleet.hpp"
#include "runtime/fleet.hpp"

namespace snowkit {
namespace {

using bench::BenchRecord;
using bench::ScenarioOptions;
using bench::ScenarioResult;

#ifdef __linux__

struct NetRun {
  std::uint64_t ops{0};
  double ops_per_sec{0};
  LatencySummary sojourn;
  std::uint64_t wire_messages{0};
  std::uint64_t wire_bytes{0};
  TransportStats net;  ///< the client process's typed transport snapshot.
  std::size_t client_nodes{0};
  bool servers_clean{false};
  bool audit_on{false};
  audit::CaptureStats audit;
};

/// $SNOWKIT_AUDIT_DIR turns on flight-recorder capture for the whole fleet:
/// each daemon AND the client process write snowkit-audit-chunk-v1 files
/// into `<env>/<protocol>` for the offline snowkit_audit pipeline.  The
/// per-protocol subdir is wiped first so a retried run can't interleave its
/// chunks with a failed attempt's.
std::string audit_dir_for(const std::string& protocol) {
  const char* env = std::getenv("SNOWKIT_AUDIT_DIR");
  if (env == nullptr || *env == '\0') return {};
  const auto dir = std::filesystem::path(env) / protocol;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) throw std::runtime_error("net_loopback: cannot create " + dir.string());
  return dir.string();
}

NetRun run_net_protocol(const std::string& protocol, std::size_t readers, std::size_t writers,
                        std::size_t total_ops, const ScenarioOptions& opts, bool saturate) {
  FleetConfig fleet;
  fleet.protocol = protocol;
  fleet.system.num_objects = 4;
  fleet.system.num_readers = readers;
  fleet.system.num_writers = writers;
  fleet.system.num_servers = 3;
  if (saturate) {
    // The saturation runs measure the transport ceiling, so give the
    // transport its parallel configuration: two epoll threads per process.
    // The fleet file carries the setting, so the daemons match the client.
    fleet.transport.io_threads = 2;
  }
  for (const std::uint16_t port : net::pick_free_ports(4)) {
    fleet.processes.push_back({"127.0.0.1", port});
  }
  fleet.validate();

  const std::string audit_dir = audit_dir_for(protocol);

  const auto config = std::filesystem::temp_directory_path() /
                      ("snowkit_fleet_" + std::to_string(::getpid()) + "_" + protocol + ".cfg");
  DaemonFleet procs(fleet, DaemonFiles{config.string(), audit_dir, "", ""});
  procs.spawn();

  NetRuntime rt(fleet.net_options(fleet.client_index()));
  WireStats wire;
  std::unique_ptr<audit::AuditCapture> capture;
  if (!audit_dir.empty()) {
    audit::CaptureOptions copts;
    copts.dir = audit_dir;
    copts.process_index = static_cast<std::uint32_t>(fleet.client_index());
    copts.protocol = fleet.protocol;
    copts.num_servers = static_cast<std::uint32_t>(fleet.system.server_count());
    copts.fleet_text = fleet_text(fleet);
    capture = std::make_unique<audit::AuditCapture>(copts, &wire);
    rt.set_observer(capture.get());
  } else {
    rt.set_observer(&wire);
  }
  HistoryRecorder rec(fleet.system.num_objects);
  auto sys = build_protocol(fleet.protocol, rt, rec, fleet.system, fleet.options);
  rt.start();
  if (!rt.wait_connected_for(15'000'000'000ull)) {
    rt.stop();
    throw std::runtime_error("net_loopback: fleet for " + protocol +
                             " did not come up within 15s (server daemons dead?)");
  }

  WorkloadSpec spec;
  spec.read_span = 2;
  spec.write_span = 2;
  spec.seed = opts.seed;
  DriverOptions dopts;
  if (saturate) {
    // Unpaced saturation: every unified client chains its next op off the
    // previous completion, so the fleet runs at the transport's closed-loop
    // ceiling instead of a fixed offered load.  Closed loops have no arrival
    // backlog, hence no sojourn; read latency comes from the history below.
    dopts.mode = ArrivalMode::kMixedClosedLoop;
    const std::size_t clients = readers + writers;
    dopts.ops_per_client = std::max<std::size_t>(1, total_ops / clients);
    total_ops = dopts.ops_per_client * clients;
  } else {
    dopts.mode = ArrivalMode::kOpenLoop;
    dopts.total_ops = total_ops;
    // Default 5k arrivals/s: sustained, not a burst; --rate R repaces it.
    dopts.arrival_interval_ns =
        opts.rate > 0 ? static_cast<TimeNs>(1e9 / opts.rate) : TimeNs{200'000};
  }
  dopts.read_fraction = 0.9;  // the paper's read-dominant regime
  WorkloadDriver driver(rt, *sys, spec, dopts);

  const auto t0 = std::chrono::steady_clock::now();
  driver.start();
  // Bounded wait with a daemon liveness probe: a server dying mid-run (or a
  // lost frame) must fail THIS bench loudly, not hang it until the CI job
  // timeout.  Budget: arrival pacing plus a generous completion margin.
  const auto run_deadline =
      t0 +
      std::chrono::nanoseconds(saturate ? TimeNs{0} : dopts.arrival_interval_ns * total_ops) +
      std::chrono::seconds(60);
  while (!driver.done()) {
    if (procs.any_exited()) {
      rt.stop();
      throw std::runtime_error("net_loopback: a snowkit_server daemon for " + protocol +
                               " exited mid-run");
    }
    if (std::chrono::steady_clock::now() > run_deadline) {
      rt.stop();
      throw std::runtime_error("net_loopback: " + protocol + " run stalled (" +
                               std::to_string(driver.completed_reads() +
                                              driver.completed_writes()) +
                               "/" + std::to_string(total_ops) + " ops completed)");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const auto t1 = std::chrono::steady_clock::now();

  rt.broadcast_shutdown();
  rt.stop();  // drains the SHUTDOWN frames to all three daemons

  NetRun out;
  out.ops = driver.completed_reads() + driver.completed_writes();
  out.ops_per_sec = static_cast<double>(out.ops) / std::chrono::duration<double>(t1 - t0).count();
  if (saturate) {
    // Closed loops skip sojourn bookkeeping; report protocol-level READ
    // latency from the history instead so the record still has percentiles.
    out.sojourn = summarize_latency(rec.snapshot(), /*reads=*/true);
  } else {
    out.sojourn = driver.sojourn_latency();
  }
  out.wire_messages = wire.messages();
  out.wire_bytes = wire.bytes();
  out.net = rt.transport_stats();
  for (NodeId id = 0; id < rt.node_count(); ++id) {
    if (rt.owns(id)) ++out.client_nodes;
  }
  out.servers_clean = procs.reap(/*grace_ms=*/5000);
  if (capture) {
    // Sealed last, after the daemons flushed theirs: the client chunk carries
    // the fleet's only History, which the merge step pairs with their rings.
    capture->set_history(rec.snapshot());
    capture->close();
    out.audit_on = true;
    out.audit = capture->stats();
  }
  return out;
}

ScenarioResult run_scenario(const ScenarioOptions& opts) {
  ScenarioResult result;
  struct Line {
    std::string kind;
    std::size_t readers, writers;
  };
  // Quick mode keeps the CI acceptance pair (algo-c + eiger); the full run
  // adds the floor and the two-round comparator.
  std::vector<Line> lines = {{"algo-c", 2, 2}, {"eiger", 2, 2}};
  if (!opts.quick) {
    lines.push_back({"simple", 2, 2});
    lines.push_back({"algo-b", 2, 2});
  }
  // --protocol can also name a registry protocol outside the default sweep
  // (e.g. broken-stale, to capture a faulty fleet for the audit pipeline).
  if (!opts.protocol.empty()) {
    bool listed = false;
    for (const Line& line : lines) listed = listed || line.kind == opts.protocol;
    if (!listed) lines.push_back({opts.protocol, opts.protocol == "algo-a" ? 1u : 2u, 2});
  }

  // Which modes to run: the default (-1) measures BOTH series per protocol —
  // the paced open-loop run keeps the longitudinal sojourn series alive, the
  // unpaced closed-loop run is the transport-ceiling headline.
  std::vector<bool> modes;  // element: saturate?
  if (opts.rate < 0) {
    modes = {false, true};
  } else if (opts.rate == 0) {
    modes = {true};
  } else {
    modes = {false};
  }

  bench::heading("net_loopback: 3 snowkit_server processes + client over TCP, 90% reads\n"
                 "  paced: open loop (sojourn percentiles)  ·  sat: unpaced closed loop,\n"
                 "  64 clients, io_threads=2 (percentiles = history READ latency)");
  const std::vector<int> widths{14, 6, 8, 12, 12, 12, 12, 12};
  bench::row({"protocol", "mode", "ops", "ops/s", "p50(us)", "p95(us)", "p99(us)", "frames/sc"},
             widths);

  for (const Line& line : lines) {
    if (!opts.wants(line.kind)) continue;
    for (const bool saturate : modes) {
      // Saturation needs a much wider closed loop than the paced arrival
      // run: 64 clients (48 readers + 16 writers) sit at the measured
      // throughput knee — fewer leave the sockets idle between completions,
      // more only queue.  Single-reader protocols (algo-a) keep one reader.
      const std::size_t readers = saturate ? (line.readers == 1 ? 1 : 48) : line.readers;
      const std::size_t writers = saturate ? 16 : line.writers;
      // The saturation probe uses a FIXED op count (mode-independent, like
      // the scalability scenario): it measures the TRANSPORT's closed-loop
      // ceiling, and longer closed loops shift the bottleneck to protocol
      // state under sustained load (48 permanently-in-flight readers hold
      // the GC watermark back, so per-read histories — and server CPU —
      // grow with elapsed writes; ops/s decays ~3x by 45k ops).  Sustained
      // protocol scaling is the scalability scenario's datapoint; this one
      // is the transport's.
      const std::size_t total_ops = saturate ? 15000 : opts.scaled(4000, 10);
      // One retry with fresh kernel-chosen ports: pick_free_ports guarantees
      // distinctness within a fleet, but another process can grab a probed
      // port in the probe-to-bind gap (e.g. parallel ctest runs).
      NetRun r;
      try {
        r = run_net_protocol(line.kind, readers, writers, total_ops, opts, saturate);
      } catch (const std::runtime_error& e) {
        std::fprintf(stderr, "[net_loopback] %s: %s — retrying with fresh ports\n",
                     line.kind.c_str(), e.what());
        r = run_net_protocol(line.kind, readers, writers, total_ops, opts, saturate);
      }

      char ops_s[32], fps[32];
      std::snprintf(ops_s, sizeof ops_s, "%.0f", r.ops_per_sec);
      std::snprintf(fps, sizeof fps, "%.2f", r.net.frames_per_syscall());
      bench::row({line.kind, saturate ? "sat" : "paced", std::to_string(r.ops), ops_s,
                  bench::us(static_cast<double>(r.sojourn.p50_ns)),
                  bench::us(static_cast<double>(r.sojourn.p95_ns)),
                  bench::us(static_cast<double>(r.sojourn.p99_ns)), fps},
                 widths);

      BenchRecord rec;
      rec.protocol = line.kind;
      rec.shards = 3;
      rec.threads = r.client_nodes;  // client-process executors; servers are real processes
      rec.ops = r.ops;
      rec.ops_per_sec = r.ops_per_sec;
      rec.latency(r.sojourn);
      rec.wire_messages = r.wire_messages;
      rec.wire_bytes = r.wire_bytes;
      rec.set("transport", "tcp-loopback");
      rec.set("server_processes", "3");
      rec.set("mode", saturate ? "closed-loop-saturation" : "open-loop");
      // The whole typed transport snapshot rides along; the key names are
      // TransportStats::extras()'s stable contract, not assembled here.
      for (const auto& [k, v] : r.net.extras()) rec.set(k, v);
      rec.set("servers_exited_clean", r.servers_clean ? "true" : "false");
      if (r.audit_on) {
        rec.set("audit_events", std::to_string(r.audit.events));
        rec.set("audit_drops", std::to_string(r.audit.drops));
        rec.set("audit_bytes", std::to_string(r.audit.bytes_written));
        rec.set("audit_chunks", std::to_string(r.audit.chunks));
      }
      result.records.push_back(std::move(rec));
    }
  }
  result.note("transport", "tcp-loopback");
  result.note("fleet", "3 server processes + 1 client process on 127.0.0.1");
  // One run per record: wall-clock ops/s and percentiles here carry no
  // speed claim (snowbench's repeated tcp-* runs do).  What one run does
  // pin is deterministic per frame: the framing bytes around the codec's.
  result.note("claim",
              "single run: backs no speed claim, only the per-frame framing figure "
              "(tcp_bytes_sent - wire_bytes) / tcp_frames_sent");
  // Saturation numbers are meaningless without the hardware context: the
  // whole fleet (4 processes) shares this machine's cores on loopback.
  result.note("host_cores", std::to_string(std::thread::hardware_concurrency()));
  std::printf("\nshape check: paced sojourn adds the loopback syscall + framing cost to the\n"
              "protocol rounds, with protocol ORDER as in the latency scenario (fewer rounds\n"
              "-> lower sojourn).  sat ops/s is the transport's closed-loop ceiling; its\n"
              "frames/syscall column > 1 is the write-coalescing win (percentiles there are\n"
              "protocol READ latency — closed loops have no arrival backlog to sojourn in).\n");
  bench::stamp_host_cores(result);
  return result;
}

#else  // !__linux__

ScenarioResult run_scenario(const ScenarioOptions&) {
  std::printf("net_loopback: TCP transport requires Linux (epoll); skipping.\n");
  return {};
}

#endif

const bench::ScenarioRegistration kReg{
    "net_loopback",
    "3 snowkit_server processes + client over loopback TCP; the first true-network datapoint",
    run_scenario};

}  // namespace
}  // namespace snowkit

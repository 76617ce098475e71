// One TCP repetition: a fresh three-daemon fleet plus this client process,
// a discarded warm-up at the workload's rate, then one measured open-loop
// window of a fixed operation count.
#include <chrono>
#include <filesystem>
#include <functional>
#include <memory>
#include <stdexcept>
#include <thread>

#include "audit/capture.hpp"
#include "fleet_procs.hpp"
#include "proto/adaptive/adaptive.hpp"
#include "runtime/net_runtime.hpp"
#include "suite.hpp"

namespace snowkit::suite {
namespace {

using Clock = std::chrono::steady_clock;

std::vector<std::string> chunk_files(const std::string& dir) {
  std::vector<std::string> out;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().extension() == ".auditchunk") out.push_back(e.path().string());
  }
  return out;
}

}  // namespace

Rep run_tcp_rep(const Workload& w, const RepOptions& o) {
  Rep rep;
  rep.ops = o.window_ops;

  FleetConfig fleet;
  fleet.protocol = w.protocol;
  fleet.system = system_config(w);
  fleet.replicas = w.replicas;
  fleet.options = build_options(w);
  for (const std::uint16_t port : net::pick_free_ports(kShards + 1)) {
    fleet.processes.push_back({"127.0.0.1", port});
  }
  fleet.validate();

  const std::string prefix = o.work_dir + "/" + o.tag;
  DaemonFiles files{prefix + ".fleet", "", "", prefix + ".stats"};
  if (o.traced) {
    files.audit_dir = prefix + ".audit";
    std::filesystem::create_directories(files.audit_dir);
  }
  if (w.replicas == 2) files.wal_dir = prefix + ".wal";

  // --- set-up: spawn -> every daemon listening -> client connected ---------
  const auto setup_start = Clock::now();
  FleetProcs procs(fleet, files, o.daemon_cpus);
  procs.spawn();

  // Declared before the runtime so it outlives every thread that records.
  std::unique_ptr<audit::AuditCapture> capture;
  if (o.traced) {
    audit::CaptureOptions copts;
    copts.dir = files.audit_dir;
    copts.process_index = static_cast<std::uint32_t>(fleet.client_index());
    copts.protocol = fleet.protocol;
    copts.num_servers = static_cast<std::uint32_t>(fleet.system.server_count());
    copts.fleet_text = fleet_text(fleet);
    copts.ring_capacity = 1u << 18;
    capture = std::make_unique<audit::AuditCapture>(copts);
  }
  NetRuntime rt(fleet.net_options(fleet.client_index()));
  if (capture) rt.set_observer(capture.get());
  HistoryRecorder rec(w.objects);
  auto sys = build_protocol(fleet.protocol, rt, rec, fleet.system, fleet.options);
  if (!procs.wait_listening(std::chrono::seconds(15))) {
    throw SetupError(w.name + ": fleet did not start listening within 15 s");
  }
  rt.start();

  // Every later failure must stop the runtime before the WorkloadDrivers it calls
  // back into are destroyed.
  const auto stop = [&] {
    rt.broadcast_shutdown();
    rt.stop();
  };
  const auto fail = [&](const std::string& why) {
    stop();
    throw std::runtime_error(w.name + ": " + why);
  };
  const auto wait_done = [&](const WorkloadDriver& d, std::size_t ops, const char* phase,
                             const std::function<void()>& tick) {
    const auto deadline =
        Clock::now() + std::chrono::duration<double>(static_cast<double>(ops) / w.rate) +
        std::chrono::seconds(60);
    while (!d.done()) {
      if (procs.any_exited()) fail(std::string("a daemon exited during the ") + phase);
      if (Clock::now() > deadline) fail(std::string(phase) + " stalled");
      if (tick) tick();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  };

  if (!rt.wait_connected_for(15'000'000'000ull)) {
    stop();
    throw SetupError(w.name + ": fleet not connected within 15 s");
  }
  rep.m["setup_s"] = std::chrono::duration<double>(Clock::now() - setup_start).count();
  if (o.window_ops == 0) {  // a set-up sample only
    stop();
    if (!procs.reap(/*grace_ms=*/5000)) rep.failures.push_back("a daemon did not exit cleanly");
    return rep;
  }

  // --- warm-up: same rate and traffic, discarded, disjoint values ----------
  {
    WorkloadSpec spec;
    spec.seed = o.seed ^ 0x3a3d5eedull;
    WorkloadDriver warm(rt, *sys, spec, driver_options(w, o.warmup_ops));
    warm.start();
    wait_done(warm, o.warmup_ops, "warm-up", {});
  }

  // --- measured window ------------------------------------------------------
  const TimeNs interval = static_cast<TimeNs>(1e9 / w.rate);
  LatenessProbe lateness(rt, interval);
  DriverOptions dopts = driver_options(w, o.window_ops);
  dopts.value_base = 1 + 4 * o.warmup_ops;  // write span 2: past any warm-up value
  dopts.after_arrival = [&lateness] { lateness.on_arrival(); };
  WorkloadSpec spec;
  spec.seed = o.seed;
  WorkloadDriver driver(rt, *sys, spec, dopts);

  const auto completed = [&] { return driver.completed_reads() + driver.completed_writes(); };
  AgingProbe aging(o.window_ops);
  const double cpu_client0 = process_cpu_s();
  const double cpu_server0 = procs.cpu_s();
  const TimeNs t0 = rt.now_ns();
  aging.mark(0);
  lateness.arm(t0);
  driver.start();
  wait_done(driver, o.window_ops, "measured window", [&] { aging.mark(completed()); });
  aging.mark(completed());
  const double cpu_client = process_cpu_s() - cpu_client0;
  const double cpu_server = procs.cpu_s() - cpu_server0;

  const TransportStats client_net = rt.transport_stats();
  AdaptiveStats adaptive;
  if (const auto* a = dynamic_cast<const AdaptiveSystem*>(sys.get())) adaptive = a->stats();
  stop();
  const bool clean = procs.reap(/*grace_ms=*/5000);
  std::map<std::string, double> daemon_net = procs.summed_stats();

  // --- metrics --------------------------------------------------------------
  const double ops = static_cast<double>(o.window_ops);
  const double run_ops = static_cast<double>(o.warmup_ops + o.window_ops);
  Metrics& m = rep.m;
  m["diag.cpu_us_per_op"] = (cpu_client + cpu_server) / ops * 1e6;
  m["cpu.client_us_per_op"] = cpu_client / ops * 1e6;
  m["cpu.server_us_per_op"] = cpu_server / ops * 1e6;
  m["cpu.aging_ratio"] = aging.ratio();

  // Fleet-wide transport totals cover the whole run (daemons report once,
  // at shutdown), so they are divided by every operation of the run.
  const auto fleet_total = [&](double client, const char* key) { return client + daemon_net[key]; };
  const double frames = fleet_total(static_cast<double>(client_net.frames_sent), "tcp_frames_sent");
  const double send_calls =
      fleet_total(static_cast<double>(client_net.send_syscalls), "tcp_send_syscalls");
  m["wire_bytes_per_op"] =
      fleet_total(static_cast<double>(client_net.bytes_sent), "tcp_bytes_sent") / run_ops;
  m["msgs_per_op"] = frames / run_ops;
  m["net.send_syscalls_per_op"] = send_calls / run_ops;
  m["net.recv_syscalls_per_op"] =
      fleet_total(static_cast<double>(client_net.recv_syscalls), "tcp_recv_syscalls") / run_ops;
  m["net.frames_per_syscall"] = send_calls > 0 ? frames / send_calls : 0;
  m["net.epoll_wakeups_per_op"] =
      fleet_total(static_cast<double>(client_net.total_epoll_wakeups()), "tcp_epoll_wakeups") /
      run_ops;
  m["net.mailbox_bursts_per_op"] =
      fleet_total(static_cast<double>(client_net.mailbox_bursts), "tcp_mailbox_bursts") / run_ops;
  m["net.backpressure_waits"] =
      fleet_total(static_cast<double>(client_net.backpressure_waits), "tcp_backpressure_waits");
  m["net.inbound_pauses"] =
      fleet_total(static_cast<double>(client_net.inbound_pauses), "tcp_inbound_pauses");
  const double reconnects = fleet_total(static_cast<double>(client_net.reconnects), "tcp_reconnects");
  m["net.reconnects"] = reconnects;

  m["driver.issue_lateness_p99_us"] = lateness.p99_us();
  const History h = rec.snapshot();
  add_history_metrics(h, t0, m);
  add_sojourn_metrics(driver, m);
  m["diag.ops_counted"] = static_cast<double>(completed());
  m["proto.adaptive_cache_hit_frac"] =
      adaptive.cache_hits + adaptive.cache_misses > 0
          ? static_cast<double>(adaptive.cache_hits) /
                static_cast<double>(adaptive.cache_hits + adaptive.cache_misses)
          : 0;
  m["proto.adaptive_one_round_frac"] =
      adaptive.reads > 0
          ? static_cast<double>(adaptive.one_round_reads) / static_cast<double>(adaptive.reads)
          : 0;

  // --- validity gates -------------------------------------------------------
  check_history(w.protocol, h, rep);
  const double achieved = driver.achieved_arrival_rate();
  if (achieved < 0.98 * w.rate) {
    rep.failures.push_back("achieved arrival rate " + std::to_string(achieved) + "/s is below 0.98 x " +
                           std::to_string(w.rate) + "/s");
  }
  if (!clean) rep.failures.push_back("a daemon did not exit cleanly");
  if (reconnects > 0) rep.failures.push_back(std::to_string(reconnects) + " reconnects");

  if (capture) {
    capture->set_history(h);
    capture->close();
    const audit::MergedAudit merged = audit::load_inputs(chunk_files(files.audit_dir));
    const std::uint64_t drops = capture->stats().drops + merged.total_drops;
    if (drops > 0) rep.failures.push_back("flight recorder dropped " + std::to_string(drops) + " events");
    add_leg_metrics(merged, m);
  }
  return rep;
}

}  // namespace snowkit::suite

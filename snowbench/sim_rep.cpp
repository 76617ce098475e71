// One simulator repetition: the workload's traffic through SimRuntime with
// 50 us - 2 ms uniform hops, in virtual time.  No transport, threads or
// scheduler are involved, so latencies, rounds and byte counts are exact
// per seed and CPU per op is protocol, store and codec work alone.
#include <chrono>
#include <memory>

#include "audit/capture.hpp"
#include "audit/chunk.hpp"
#include "metrics/wire_stats.hpp"
#include "sim/sim_runtime.hpp"
#include "suite.hpp"

namespace snowkit::suite {

Rep run_sim_rep(const Workload& w, const RepOptions& o) {
  Rep rep;
  rep.ops = o.window_ops;

  const auto setup_start = std::chrono::steady_clock::now();
  WireStats wire;
  std::unique_ptr<audit::AuditCapture> capture;
  if (o.traced) {
    audit::CaptureOptions copts;
    copts.dir = o.work_dir + "/" + o.tag + ".audit";
    copts.protocol = w.protocol;
    copts.num_servers = static_cast<std::uint32_t>(kShards);
    copts.ring_capacity = 1u << 18;
    capture = std::make_unique<audit::AuditCapture>(copts, &wire);
  }
  SimRuntime sim(make_uniform_delay(50'000, 2'000'000, o.seed));
  sim.set_observer(capture ? static_cast<MessageObserver*>(capture.get()) : &wire);
  HistoryRecorder rec(w.objects);
  auto sys = build_protocol(w.protocol, sim, rec, system_config(w), build_options(w));
  LatenessProbe lateness(sim, static_cast<TimeNs>(1e9 / w.rate));
  DriverOptions dopts = driver_options(w, o.window_ops);
  dopts.after_arrival = [&lateness] { lateness.on_arrival(); };
  WorkloadSpec spec;
  spec.seed = o.seed;
  WorkloadDriver driver(sim, *sys, spec, dopts);
  rep.m["setup_s"] =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - setup_start).count();

  const auto completed = [&] { return driver.completed_reads() + driver.completed_writes(); };
  AgingProbe aging(o.window_ops);
  const double cpu0 = process_cpu_s();
  const TimeNs t0 = sim.now_ns();
  aging.mark(0);
  lateness.arm(t0);
  driver.start();
  for (std::size_t third = 1; third <= 3; ++third) {
    sim.run_until([&] { return completed() >= o.window_ops * third / 3; });
    aging.mark(completed());
  }
  sim.run_until_idle();
  const double cpu = process_cpu_s() - cpu0;

  const double ops = static_cast<double>(o.window_ops);
  Metrics& m = rep.m;
  // One thread runs clients and servers alike; its CPU is charged to the
  // client side, and the simulator has no transport counters.
  m["diag.cpu_us_per_op"] = cpu / ops * 1e6;
  m["cpu.client_us_per_op"] = cpu / ops * 1e6;
  m["cpu.server_us_per_op"] = 0;
  m["cpu.aging_ratio"] = aging.ratio();
  m["wire_bytes_per_op"] = static_cast<double>(wire.bytes()) / ops;
  m["msgs_per_op"] = static_cast<double>(wire.messages()) / ops;
  for (const char* key : {"net.send_syscalls_per_op", "net.recv_syscalls_per_op",
                          "net.frames_per_syscall", "net.epoll_wakeups_per_op",
                          "net.mailbox_bursts_per_op", "net.backpressure_waits",
                          "net.inbound_pauses", "net.reconnects"}) {
    m[key] = 0;
  }

  m["driver.issue_lateness_p99_us"] = lateness.p99_us();
  const History h = rec.snapshot();
  add_history_metrics(h, t0, m);
  add_sojourn_metrics(driver, m);
  m["virt_read_p50_us"] = m["diag.read_p50_us"];
  m["virt_read_p99_us"] = m["diag.read_p99_us"];
  m["virt_write_p99_us"] = m["diag.write_p99_us"];
  m["diag.ops_counted"] = static_cast<double>(completed());
  m["proto.adaptive_cache_hit_frac"] = 0;
  m["proto.adaptive_one_round_frac"] = 0;

  check_history(w.protocol, h, rep);
  if (!driver.done()) rep.failures.push_back("not every operation completed");
  if (driver.achieved_arrival_rate() < 0.98 * w.rate) {
    rep.failures.push_back("achieved arrival rate below 0.98 x nominal");
  }
  audit::encode_history(h, rep.history);

  if (capture) {
    capture->set_history(h);
    capture->close();
    if (capture->stats().drops > 0) {
      rep.failures.push_back("flight recorder dropped " + std::to_string(capture->stats().drops) +
                             " events");
    }
    // Legs in virtual time, from the simulator's own action trace.
    audit::MergedAudit merged;
    merged.protocol = w.protocol;
    merged.num_servers = static_cast<std::uint32_t>(kShards);
    merged.trace = sim.trace();
    merged.history = h;
    add_leg_metrics(merged, m);
  }
  return rep;
}

}  // namespace snowkit::suite

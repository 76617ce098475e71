// Shared helpers for the snowkit benchmark scenarios.
//
// Every scenario prints the paper-style table(s) it reproduces to stdout
// (run `bench_harness --all` to regenerate the whole evaluation) and returns
// BenchRecords that the harness serializes to BENCH_<scenario>.json.
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "checker/serializability.hpp"
#include "checker/snow_monitor.hpp"
#include "checker/tag_order.hpp"
#include "core/run_workload.hpp"
#include "core/system.hpp"
#include "harness.hpp"
#include "metrics/wire_stats.hpp"
#include "sim/sim_runtime.hpp"

namespace snowkit::bench {

inline void heading(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void row(const std::vector<std::string>& cells, const std::vector<int>& widths) {
  std::string line;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const int w = i < widths.size() ? widths[i] : 16;
    char buf[256];
    std::snprintf(buf, sizeof buf, "%-*s", w, cells[i].c_str());
    line += buf;
    line += "  ";
  }
  std::printf("%s\n", line.c_str());
}

struct SimRunResult {
  History history;
  SnowTraceReport snow;
  LatencySummary read_latency;
  LatencySummary write_latency;
  LatencySummary sojourn_latency;  ///< arrival->completion incl. backlog queueing.
  std::uint64_t wire_messages{0};
  std::uint64_t wire_bytes{0};
  bool tag_order_ok{false};
  std::string tag_order_note;
};

/// Runs a workload for protocol `kind` (a registry name) on a fresh simulator
/// and collects everything the tables need.  `cfg.num_servers` may shard the
/// objects over a smaller fleet; `driver_opts` selects closed vs open loop.
inline SimRunResult run_sim_workload(const std::string& kind, SystemConfig cfg, WorkloadSpec spec,
                                     std::uint64_t delay_seed = 1, BuildOptions opts = {},
                                     DriverOptions driver_opts = {}) {
  SimRuntime sim(make_uniform_delay(50'000, 2'000'000, delay_seed));  // 50us..2ms hops
  WireStats wire;
  sim.set_observer(&wire);
  HistoryRecorder rec(cfg.num_objects);
  auto sys = build_protocol(kind, sim, rec, cfg, opts);
  WorkloadDriver driver(sim, *sys, spec, driver_opts);
  driver.start();
  sim.run_until_idle();

  SimRunResult out;
  out.history = rec.snapshot();
  out.snow = analyze_snow_trace(sim.trace(), sys->num_servers(), out.history);
  out.read_latency = summarize_latency(out.history, /*reads=*/true);
  out.write_latency = summarize_latency(out.history, /*reads=*/false);
  out.sojourn_latency = driver.sojourn_latency();
  out.wire_messages = wire.messages();
  out.wire_bytes = wire.bytes();
  if (provides_tags(kind)) {
    auto verdict = check_tag_order(out.history);
    out.tag_order_ok = verdict.ok;
    out.tag_order_note = verdict.explanation;
  }
  return out;
}

/// Rounds per completed READ among `h`'s transactions from index `first`
/// on, averaged to 3 decimals ("0.000" with none).
inline std::string mean_read_rounds(const History& h, std::size_t first = 0) {
  double rounds = 0;
  std::size_t reads = 0;
  for (std::size_t i = first; i < h.txns.size(); ++i) {
    const TxnRecord& t = h.txns[i];
    if (!t.is_read || !t.complete) continue;
    rounds += t.rounds;
    ++reads;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", reads == 0 ? 0.0 : rounds / static_cast<double>(reads));
  return buf;
}

inline std::string us(double ns) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.1f", ns / 1000.0);
  return buf;
}

inline std::string yesno(bool b) { return b ? "yes" : "no"; }

/// BenchRecord skeleton for a simulated run: protocol/shard/wire fields from
/// the run, sojourn percentiles from the given latency summary (open-loop
/// runs pass r.sojourn_latency; closed loops — which have no backlog, so
/// invoke->respond IS the sojourn — pass r.read_latency).  ops_per_sec stays
/// 0: simulated time is virtual.
inline BenchRecord sim_record(const std::string& protocol, const SystemConfig& cfg,
                              const SimRunResult& r, const LatencySummary& sojourn) {
  BenchRecord rec;
  rec.protocol = protocol;
  rec.shards = cfg.server_count();
  rec.ops = r.history.completed_reads() + r.history.completed_writes();
  rec.latency(sojourn);
  rec.wire_messages = r.wire_messages;
  rec.wire_bytes = r.wire_bytes;
  return rec;
}

}  // namespace snowkit::bench

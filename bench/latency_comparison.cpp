// Scenario "latency": READ-transaction latency versus the simple-read floor
// (paper §1).
//
// The paper's motivation: reads dominate (Facebook TAO reports 500 reads per
// write), so READ-transaction latency must match simple reads.  Two parts:
//
//  1. closed-loop 500:1 mix over a simulated datacenter network (50us..2ms
//     per hop, heavy-tailed): per-protocol read latency, rounds, guarantee.
//     Expected shape: A ~ C ~ simple (one round), B up to 2x (a second
//     round for its objects off the coordinator's shard), blocking worst.
//  2. open-loop fixed-rate arrivals per protocol: client-perceived SOJOURN
//     latency (arrival->completion including backlog) — these rows are the
//     JSON records, since sojourn under load is the honest number.
#include "bench_util.hpp"

namespace snowkit {
namespace {

using bench::ScenarioOptions;
using bench::ScenarioResult;

struct Line {
  const char* name;
  std::string kind;
  std::size_t readers;
  std::size_t writers;
  const char* guarantee;
};

const std::vector<Line>& lines() {
  static const std::vector<Line> kLines = {
      {"simple", "simple", 2, 1, "none (floor)"},
      {"algo-a", "algo-a", 1, 2, "strict serializability"},
      {"algo-b", "algo-b", 2, 2, "strict serializability"},
      {"algo-c", "algo-c", 2, 2, "strict serializability"},
      {"occ-reads", "occ-reads", 2, 2, "strict serializability"},
      {"eiger", "eiger", 2, 2, "NOT strict (see fig5_eiger)"},
      {"blocking-2pl", "blocking-2pl", 2, 2, "strict serializability"},
  };
  return kLines;
}

void print_closed_loop_table(const ScenarioOptions& opts) {
  bench::heading("READ latency vs the simple-read floor (500:1 read:write, 4 shards)");
  const std::vector<int> widths{14, 9, 10, 10, 10, 8, 26};
  bench::row({"protocol", "rounds", "p50(us)", "p99(us)", "mean(us)", "N holds", "guarantee"},
             widths);
  double floor_p50 = 0;
  for (const Line& line : lines()) {
    if (!opts.wants(line.kind) && line.kind != "simple") continue;  // keep the floor row
    WorkloadSpec spec;
    spec.ops_per_reader = opts.scaled(500);
    spec.ops_per_writer = 1 + opts.scaled(500) / 500;
    spec.read_span = 3;
    spec.write_span = 2;
    spec.zipf_theta = 0.9;
    spec.seed = 42;
    const SystemConfig cfg{4, line.readers, line.writers};
    auto r = bench::run_sim_workload(line.kind, cfg, spec, 42);
    if (line.kind == "simple") floor_p50 = static_cast<double>(r.read_latency.p50_ns);
    bench::row({line.name, std::to_string(r.snow.max_read_rounds),
                bench::us(static_cast<double>(r.read_latency.p50_ns)),
                bench::us(static_cast<double>(r.read_latency.p99_ns)),
                bench::us(r.read_latency.mean_ns), bench::yesno(r.snow.satisfies_n()),
                line.guarantee},
               widths);
  }
  std::printf("\nshape check (paper §1/§2): one-round protocols (algo-a, algo-c) match the\n"
              "simple-read floor (p50 ratio ~1x of %.1fus); algo-b pays up to ~2x (a\n"
              "second round for the objects whose version a racing WRITE refuted);\n"
              "blocking-2pl pays multi-round + lock waits.  Latency-optimal + strongest\n"
              "guarantees together only where the SNOW theorem permits.\n",
              floor_p50 / 1000.0);
}

void run_open_loop_rows(const ScenarioOptions& opts, ScenarioResult& result) {
  bench::heading("open-loop sojourn latency (fixed arrivals, 90% reads, 4 shards)");
  const std::vector<int> widths{14, 8, 12, 12, 12, 14};
  bench::row({"protocol", "ops", "p50(us)", "p95(us)", "p99(us)", "bytes/txn"}, widths);
  for (const Line& line : lines()) {
    if (!opts.wants(line.kind)) continue;
    WorkloadSpec spec;
    spec.read_span = 2;
    spec.write_span = 2;
    spec.seed = opts.seed;
    DriverOptions dopts;
    dopts.mode = ArrivalMode::kOpenLoop;
    dopts.total_ops = opts.scaled(400, 4);
    dopts.arrival_interval_ns = 2'000'000;  // 500 ops/s: below fleet capacity,
                                            // so sojourn measures a stable queue
    dopts.read_fraction = 0.9;
    const SystemConfig cfg{4, line.readers, line.writers};
    auto r = bench::run_sim_workload(line.kind, cfg, spec, opts.seed, {}, dopts);
    auto rec = bench::sim_record(line.kind, cfg, r, r.sojourn_latency);
    rec.set("guarantee", line.guarantee);
    rec.set("max_read_rounds", std::to_string(r.snow.max_read_rounds));
    rec.set("mean_read_rounds", bench::mean_read_rounds(r.history));
    // WRITE service latency, invoke to respond (the sojourn above mixes in
    // the READs): CI's bench-smoke gates algo-b's and algo-c's p99.
    rec.set("write_p50_us", bench::us(static_cast<double>(r.write_latency.p50_ns)));
    rec.set("write_p99_us", bench::us(static_cast<double>(r.write_latency.p99_ns)));
    bench::row({line.kind, std::to_string(rec.ops),
                bench::us(static_cast<double>(r.sojourn_latency.p50_ns)),
                bench::us(static_cast<double>(r.sojourn_latency.p95_ns)),
                bench::us(static_cast<double>(r.sojourn_latency.p99_ns)),
                std::to_string(rec.ops == 0 ? 0 : rec.wire_bytes / rec.ops)},
               widths);
    result.records.push_back(std::move(rec));
  }
}

void print_contention_sensitivity(const ScenarioOptions& opts) {
  bench::heading("blocking reads vs write contention (why non-blocking matters)");
  const std::vector<int> widths{14, 12, 12, 12};
  bench::row({"protocol", "writers", "p50(us)", "p99(us)"}, widths);
  for (std::size_t writers : {1, 4, 8}) {
    for (const std::string kind : {"blocking-2pl", "algo-b"}) {
      WorkloadSpec spec;
      spec.ops_per_reader = opts.scaled(200);
      spec.ops_per_writer = opts.scaled(100);
      spec.read_span = 2;
      spec.write_span = 2;
      spec.seed = 7;
      auto r = bench::run_sim_workload(kind, SystemConfig{2, 2, writers}, spec, 7);
      bench::row({kind, std::to_string(writers),
                  bench::us(static_cast<double>(r.read_latency.p50_ns)),
                  bench::us(static_cast<double>(r.read_latency.p99_ns))},
                 widths);
    }
  }
  std::printf("\nshape check: blocking read tails grow with writer count; algo-b's stay flat\n"
              "(non-blocking servers answer immediately regardless of concurrent WRITEs).\n");
}

ScenarioResult run_scenario(const ScenarioOptions& opts) {
  ScenarioResult result;
  print_closed_loop_table(opts);
  run_open_loop_rows(opts, result);
  if (!opts.quick && opts.protocol.empty()) print_contention_sensitivity(opts);
  bench::stamp_host_cores(result);
  return result;
}

const bench::ScenarioRegistration kReg{
    "latency",
    "per-protocol READ latency vs the simple-read floor; open-loop sojourn rows feed the JSON",
    run_scenario};

}  // namespace
}  // namespace snowkit

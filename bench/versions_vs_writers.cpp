// Scenario "versions_vs_writers": validates Algorithm C's |W| bound
// (Theorem 5 / Fig. 1(b)): with the bounded-version GC extension, the number
// of versions a read-vals response carries stays within (concurrent writers
// + 1), independent of history length; without GC it grows with the total
// number of writes.
#include "bench_util.hpp"

namespace snowkit {
namespace {

using bench::ScenarioOptions;
using bench::ScenarioResult;

void run_table(const ScenarioOptions& opts, ScenarioResult& result) {
  bench::heading("Algorithm C: versions per response vs concurrent writers (|W| bound)");
  const std::vector<int> widths{10, 16, 18, 18, 10};
  bench::row({"writers", "writes total", "versions (noGC)", "versions (GC)", "S holds"}, widths);
  for (std::size_t writers : {1, 2, 4, 8}) {
    if (opts.quick && writers > 4) continue;
    WorkloadSpec spec;
    spec.ops_per_reader = opts.scaled(50);
    spec.ops_per_writer = opts.scaled(50);
    spec.read_span = 2;
    spec.write_span = 2;
    spec.seed = writers;

    const SystemConfig topo{2, 2, writers};
    BuildOptions nogc;
    nogc.set("gc_versions", false);  // GC is the default now; baseline opts out
    auto base = bench::run_sim_workload("algo-c", topo, spec, writers, nogc);
    BuildOptions gc;
    gc.set("gc_versions", true);
    auto bounded = bench::run_sim_workload("algo-c", topo, spec, writers + 100, gc);
    bench::row({std::to_string(writers), std::to_string(writers * spec.ops_per_writer),
                std::to_string(base.snow.max_versions_per_response),
                std::to_string(bounded.snow.max_versions_per_response),
                bench::yesno(base.tag_order_ok && bounded.tag_order_ok)},
               widths);
    for (const auto* pair : {&base, &bounded}) {
      auto rec = bench::sim_record("algo-c", topo, *pair, pair->read_latency);
      rec.set("gc", pair == &bounded ? "on" : "off");
      rec.set("writers", std::to_string(writers));
      rec.set("max_versions_per_response",
              std::to_string(pair->snow.max_versions_per_response));
      result.records.push_back(std::move(rec));
    }
  }
  std::printf("\nshape check: the no-GC column grows with total writes (the paper's Vals set\n"
              "keeps everything); the GC column stays O(|W|) — at most concurrent writers\n"
              "plus the one stable version, matching Fig. 1(b)'s |W| row.\n");
}

void print_rounds_vs_span(const ScenarioOptions& opts) {
  bench::heading("one-round property is independent of read width (multi-get size)");
  const std::vector<int> widths{12, 10, 12};
  bench::row({"read span", "rounds", "p50(us)"}, widths);
  for (std::size_t span : {1, 2, 4, 8}) {
    WorkloadSpec spec;
    spec.ops_per_reader = opts.scaled(80);
    spec.ops_per_writer = opts.scaled(20);
    spec.read_span = span;
    spec.seed = 9;
    auto r = bench::run_sim_workload("algo-c", SystemConfig{8, 2, 2}, spec, 9);
    bench::row({std::to_string(span), std::to_string(r.snow.max_read_rounds),
                bench::us(static_cast<double>(r.read_latency.p50_ns))},
               widths);
  }
}

ScenarioResult run_scenario(const ScenarioOptions& opts) {
  ScenarioResult result;
  run_table(opts, result);
  if (!opts.quick) print_rounds_vs_span(opts);
  bench::stamp_host_cores(result);
  return result;
}

const bench::ScenarioRegistration kReg{
    "versions_vs_writers",
    "Algorithm C |W| bound: versions per response with and without the GC extension",
    run_scenario};

}  // namespace
}  // namespace snowkit

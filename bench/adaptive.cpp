// Scenario "adaptive": the per-object B<->C meta-protocol against its two
// static parents, and eiger beside them, on one theta x read-mix grid.
//
// The claim under test (ISSUE 10 acceptance): adaptive should never be the
// WORST of the pair it composes — write-heavy skewed traffic flips hot
// objects into C-mode prefetching (sojourn tracks algo-c, within 10% of the
// better static protocol), while uniform read-heavy traffic keeps objects in
// B-mode where the watermark-proved client cache eliminates a large slice of
// the round-2 value fetches outright.
//
// Grid: theta {0.0, 0.99} x read-fraction {0.9, 0.1} x
// {adaptive, algo-b, algo-c, eiger}, paced engine-mode arrivals (10^6
// logical clients, 4 arrival shards, hash-permuted ranks on a range
// placement) on the SIMULATOR.  The gates here are per-cell p99 RATIOS
// between protocols, and a ratio gate needs the tail to measure protocol
// rounds x hop delays, not host scheduling (a 1-core CI box swings
// wall-clock p99 by an order of magnitude between identical runs; virtual
// time is exact and reproducible per seed).  The default offered load,
// 500 ops/s, leaves every cell unsaturated (p50 under 5 ms), so the tail
// is protocol cost rather than backlog; at 2000 ops/s every cell queues
// and the p99 spans the whole run.  Adaptive records carry the protocol's
// own counters — cache_hit_rate, switch_count, one_round_fraction — and
// the notes surface the jq-gateable aggregates CI checks:
//
//   adaptive_p99_max_ratio        max over cells of p99(adaptive)/min(p99 B, C)
//   cache_hit_rate_uniform_readheavy   the theta=0, rf=0.9 cell's hit rate
//   switch_count_theta099         total mode flips across the skewed cells
#include "bench_util.hpp"

#include <map>

#include "metrics/wire_stats.hpp"
#include "proto/adaptive/adaptive.hpp"

namespace snowkit {
namespace {

using bench::BenchRecord;
using bench::ScenarioOptions;
using bench::ScenarioResult;

constexpr std::size_t kObjects = 64;
constexpr std::size_t kServers = 4;
constexpr std::size_t kReaders = 4;
constexpr std::size_t kWriters = 4;
constexpr std::uint64_t kLogicalClients = 1'000'000;
constexpr std::size_t kArrivalShards = 4;

TrafficModel make_model(double theta, double read_fraction) {
  TrafficModel model;
  model.zipf_theta = theta;
  model.permute_ranks = true;
  model.read_fraction = read_fraction;
  model.read_span = SpanDist{SpanKind::kGeometric, 1, 4, 0.5};
  model.write_span = SpanDist::fixed(2);
  model.logical_clients = kLogicalClients;
  return model;
}

struct CellRun {
  std::uint64_t ops{0};
  double ops_per_sec{0};
  double achieved_rate{0};
  LatencySummary sojourn;
  std::uint64_t wire_messages{0};
  std::uint64_t wire_bytes{0};
  std::string mean_read_rounds;  ///< over the measured READs.
  bool has_adaptive{false};
  AdaptiveStats adaptive;
};

CellRun run_cell(const std::string& kind, const TrafficModel& model, std::size_t total_ops,
                 TimeNs interval_ns, std::uint64_t seed) {
  SimRuntime sim(make_uniform_delay(50'000, 2'000'000, seed));  // 50us..2ms hops
  WireStats wire;
  sim.set_observer(&wire);
  HistoryRecorder rec(kObjects);
  SystemConfig cfg;
  cfg.num_objects = kObjects;
  cfg.num_readers = kReaders;
  cfg.num_writers = kWriters;
  cfg.num_servers = kServers;
  cfg.placement = PlacementKind::kRange;
  auto sys = build_protocol(kind, sim, rec, cfg);
  WorkloadSpec spec;
  spec.seed = seed;
  DriverOptions opts;
  opts.mode = ArrivalMode::kOpenLoop;
  opts.arrival_interval_ns = interval_ns;
  opts.traffic = model;
  opts.arrival_shards = kArrivalShards;

  // Steady-state warmup on the SAME system: the adaptive mode table and the
  // client caches converge over the first EWMA window, and a cold-start
  // transient in the measured percentiles would gate on the ramp, not the
  // protocol.  The warmup driver's sojourn histogram is discarded; disjoint
  // value ranges keep the checkers' writer identification exact.
  {
    DriverOptions warm = opts;
    warm.total_ops = std::max<std::size_t>(200, total_ops / 2);
    WorkloadSpec wspec;
    wspec.seed = seed ^ 0x3a3dull;
    WorkloadDriver warmup(sim, *sys, wspec, warm);
    warmup.start();
    sim.run_until_idle();
    opts.value_base = 1 + warm.total_ops * 8;  // past any value warmup handed out
  }
  const std::size_t warm_txns = rec.snapshot().txns.size();
  const std::uint64_t warm_messages = wire.messages();
  const std::uint64_t warm_bytes = wire.bytes();

  opts.total_ops = total_ops;
  WorkloadDriver driver(sim, *sys, spec, opts);
  driver.start();
  sim.run_until_idle();

  CellRun out;
  out.ops = driver.completed_reads() + driver.completed_writes();
  out.ops_per_sec = 0;  // virtual time: wall-clock throughput is meaningless
  out.achieved_rate = driver.achieved_arrival_rate();
  out.sojourn = driver.sojourn_latency();
  out.wire_messages = wire.messages() - warm_messages;
  out.wire_bytes = wire.bytes() - warm_bytes;
  out.mean_read_rounds = bench::mean_read_rounds(rec.snapshot(), warm_txns);
  if (const auto* adaptive = dynamic_cast<const AdaptiveSystem*>(sys.get())) {
    out.has_adaptive = true;
    out.adaptive = adaptive->stats();
  }
  return out;
}

std::string fmt(double v, const char* spec = "%.2f") {
  char buf[48];
  std::snprintf(buf, sizeof buf, spec, v);
  return buf;
}

double hit_rate(const AdaptiveStats& s) {
  const double consults = static_cast<double>(s.cache_hits + s.cache_misses);
  return consults > 0 ? static_cast<double>(s.cache_hits) / consults : 0.0;
}

ScenarioResult run_scenario(const ScenarioOptions& opts) {
  ScenarioResult result;

  const std::vector<double> thetas{0.0, 0.99};
  const std::vector<double> mixes{0.9, 0.1};
  const std::vector<std::string> kinds = {"adaptive", "algo-b", "algo-c", "eiger"};
  // NOT opts.scaled(): the cells run in virtual time (the whole grid is
  // ~0.5s wall), and a 400-sample p99 is too coarse for the 1.1x ratio gate
  // CI applies — quick mode keeps the full 2000 samples per cell.
  const std::size_t total_ops = 2000;
  const TimeNs interval_ns =
      opts.rate > 0 ? static_cast<TimeNs>(1e9 / opts.rate) : TimeNs{2'000'000};  // 500 ops/s

  bench::heading(
      "adaptive vs its static parents and eiger: theta x read-mix grid, engine-mode pacing;\n"
      "  percentiles are SOJOURN; hit% and switches are the adaptive layer's own counters");
  const std::vector<int> widths{10, 8, 8, 10, 12, 12, 12, 8, 9};
  bench::row({"protocol", "theta", "rdfrac", "ops", "p50(us)", "p95(us)", "p99(us)", "hit%",
              "switches"},
             widths);

  std::map<std::string, double> p99;
  double uniform_readheavy_hit_rate = 0;
  double uniform_readheavy_one_round = 0;
  std::uint64_t switches_theta099 = 0;
  for (const double theta : thetas) {
    for (const double mix : mixes) {
      for (const std::string& kind : kinds) {
        if (!opts.wants(kind)) continue;
        const CellRun r = run_cell(kind, make_model(theta, mix), total_ops, interval_ns,
                                   opts.seed + 100 * static_cast<std::uint64_t>(theta * 100) +
                                       static_cast<std::uint64_t>(mix * 100));
        std::string hits = "-";
        std::string switches = "-";
        BenchRecord rec;
        rec.protocol = kind;
        rec.shards = kServers;
        rec.ops = r.ops;
        rec.ops_per_sec = r.ops_per_sec;
        rec.latency(r.sojourn);
        rec.wire_messages = r.wire_messages;
        rec.wire_bytes = r.wire_bytes;
        rec.set("mode", "engine-adaptive-grid");
        rec.set("runtime", "sim");
        rec.set("zipf_theta", fmt(theta));
        rec.set("read_fraction", fmt(mix));
        rec.set("achieved_rate", fmt(r.achieved_rate, "%.0f"));
        rec.set("logical_clients", std::to_string(kLogicalClients));
        rec.set("arrival_shards", std::to_string(kArrivalShards));
        rec.set("placement", "range");
        rec.set("mean_read_rounds", r.mean_read_rounds);
        if (r.has_adaptive) {
          const AdaptiveStats& s = r.adaptive;
          const double one_round =
              s.reads > 0 ? static_cast<double>(s.one_round_reads) / static_cast<double>(s.reads)
                          : 0.0;
          rec.set("cache_hit_rate", fmt(hit_rate(s)));
          rec.set("one_round_fraction", fmt(one_round));
          rec.set("switch_count", std::to_string(s.switches));
          rec.set("cache_hits", std::to_string(s.cache_hits));
          rec.set("cache_misses", std::to_string(s.cache_misses));
          rec.set("prefetch_resolved", std::to_string(s.prefetch_resolved));
          rec.set("round2_objects", std::to_string(s.round2_objects));
          hits = fmt(100.0 * hit_rate(s), "%.0f");
          switches = std::to_string(s.switches);
          if (theta == 0.0 && mix == 0.9) {
            uniform_readheavy_hit_rate = hit_rate(s);
            uniform_readheavy_one_round = one_round;
          }
          if (theta == 0.99) switches_theta099 += s.switches;
        }
        bench::row({kind, fmt(theta), fmt(mix), std::to_string(r.ops),
                    bench::us(static_cast<double>(r.sojourn.p50_ns)),
                    bench::us(static_cast<double>(r.sojourn.p95_ns)),
                    bench::us(static_cast<double>(r.sojourn.p99_ns)), hits, switches},
                   widths);
        p99[kind + "/" + fmt(theta) + "/" + fmt(mix)] = static_cast<double>(r.sojourn.p99_ns);
        result.records.push_back(std::move(rec));
      }
    }
  }

  // The acceptance aggregates: adaptive must not lose to the better static
  // parent by more than the 10% band in ANY cell, and the write-heavy skewed
  // cell is called out on its own (that is where B and C genuinely diverge).
  if (opts.protocol.empty()) {
    double max_ratio = 0;
    for (const double theta : thetas) {
      for (const double mix : mixes) {
        const std::string cell = fmt(theta) + "/" + fmt(mix);
        const double a = p99["adaptive/" + cell];
        const double best = std::min(p99["algo-b/" + cell], p99["algo-c/" + cell]);
        if (a <= 0 || best <= 0) continue;
        const double ratio = a / best;
        result.note("adaptive_p99_ratio_" + fmt(theta) + "_" + fmt(mix), fmt(ratio));
        max_ratio = std::max(max_ratio, ratio);
        if (theta == thetas.back() && mix == mixes.back()) {
          result.note("adaptive_write_heavy_skew_ratio", fmt(ratio));
        }
      }
    }
    result.note("adaptive_p99_max_ratio", fmt(max_ratio));
    std::printf("\nadaptive p99 vs best static parent: worst cell ratio %.2f (budget 1.10)\n",
                max_ratio);
  }
  result.note("cache_hit_rate_uniform_readheavy", fmt(uniform_readheavy_hit_rate));
  result.note("one_round_fraction_uniform_readheavy", fmt(uniform_readheavy_one_round));
  result.note("switch_count_theta099", std::to_string(switches_theta099));
  std::printf("uniform read-heavy: cache served %.0f%% of per-object resolutions "
              "(%.0f%% of READs closed in one round); theta=0.99 drove %llu mode flips\n",
              100.0 * uniform_readheavy_hit_rate, 100.0 * uniform_readheavy_one_round,
              static_cast<unsigned long long>(switches_theta099));

  bench::stamp_host_cores(result);
  return result;
}

const bench::ScenarioRegistration kReg{
    "adaptive",
    "per-object B<->C switching vs the static parents and eiger on a theta x read-mix grid; "
    "cache hit-rate and mode-flip counters",
    run_scenario};

}  // namespace
}  // namespace snowkit

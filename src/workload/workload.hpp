// Workload specification and generation.
//
// Models the read-dominant workloads that motivate the paper (§1: Facebook
// TAO reports 500 reads per write; Google F1 three orders of magnitude more
// reads than general transactions): closed-loop read and write clients,
// multi-get width distributions, uniform or zipfian object popularity.
//
// Two layers:
//
//  * WorkloadSpec + OpStream — the seed's per-client generator (fixed spans,
//    identity rank->object map).  Its sampling is deterministic per seed and
//    BYTE-COMPATIBLE with every earlier checkin: the deterministic bench
//    JSONs (BENCH_latency.json) replay through it unchanged.
//  * TrafficModel + TrafficShard — the composable production-traffic engine:
//    Zipfian popularity with a hash-permuted rank->object map, read/write
//    mix, span distributions, piecewise rate curves, and a population of
//    LOGICAL clients (stream identities, not threads) whose aggregate
//    arrival process one driver shard emits.  core/run_workload.hpp's
//    open-loop pacer draws from either layer.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace snowkit {

struct WorkloadSpec {
  std::size_t ops_per_reader{50};
  std::size_t ops_per_writer{10};
  std::size_t read_span{2};   ///< objects per READ transaction.
  std::size_t write_span{2};  ///< objects per WRITE transaction.
  double zipf_theta{0.0};     ///< 0 = uniform object popularity.
  std::uint64_t seed{1};
};

/// Memoized zeta(n, theta) = sum_{i=1..n} 1/i^theta.  The sum is pure and
/// O(n), and one ZipfSampler is built per client stream — at 10^6 objects x
/// 10^3+ streams the per-sampler sum was an O(n * clients) startup stall.
/// The cache is process-global and mutex-guarded (construction only, never
/// the sampling hot path); identical (n, theta) pairs share one computation.
double zipf_zeta(std::size_t n, double theta);

/// Cache counters for tests: proves sharing happens without timing-based
/// assertions.  Snapshot is approximate under concurrent construction.
struct ZetaCacheStats {
  std::uint64_t hits{0};
  std::uint64_t misses{0};
};
ZetaCacheStats zeta_cache_stats();

/// Zipfian sampler over [0, n) with parameter theta in [0, 1).
/// theta = 0 degenerates to uniform; theta ~0.99 is YCSB-style skew.
/// theta outside [0, 1) throws std::invalid_argument: theta = 1 makes the
/// Gray et al. exponent alpha = 1/(1-theta) infinite, theta > 1 yields
/// garbage indices, and a negative theta silently degenerates to uniform —
/// all three are misconfigurations, not workloads.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double theta, std::uint64_t seed);
  std::size_t next();

 private:
  std::size_t n_;
  double theta_;
  double alpha_{0};
  double zetan_{0};
  double eta_{0};
  Xoshiro256 rng_;
};

/// Seeded bijection over [0, n): a 4-round Feistel network on the smallest
/// even-bit power-of-two domain covering n, cycle-walked back into [0, n).
/// O(1) state, deterministic per (n, seed), and uniform-ish scatter — the
/// hot-shard fix: Zipf rank i maps identity to ObjectId i, so under range
/// placement every hot key lands on shard 0 and a skewed bench measures a
/// placement artifact instead of protocol cost.  Permuting rank->object
/// spreads the hot ranks across shards.  The default-constructed
/// permutation is the identity (seed-compat for OpStream).
class RankPermutation {
 public:
  RankPermutation() = default;  ///< identity over any domain.
  RankPermutation(std::size_t n, std::uint64_t seed);

  std::size_t apply(std::size_t rank) const;
  bool is_identity() const { return half_bits_ == 0; }

 private:
  std::size_t encrypt(std::size_t x) const;

  std::size_t n_{0};
  unsigned half_bits_{0};  ///< 0 = identity; else domain is 2^(2*half_bits_).
  std::uint64_t keys_[4]{};
};

/// Transaction-span distribution: how many distinct objects one READ or
/// WRITE touches.  kFixed is the seed behaviour; kUniform draws from
/// [min, max]; kGeometric starts at min and continues with probability p
/// per extra object, capped at max (short multi-gets dominate, a heavy-ish
/// tail survives — the production multi-get shape).
enum class SpanKind { kFixed, kUniform, kGeometric };

struct SpanDist {
  SpanKind kind{SpanKind::kFixed};
  std::size_t min{2};
  std::size_t max{2};
  double p{0.5};  ///< kGeometric: continue probability per extra object.

  std::size_t sample(Xoshiro256& rng) const;
  /// Throws std::invalid_argument (same contract as the driver's span
  /// validation) for empty/inverted ranges or spans beyond num_objects.
  void validate(const char* what, std::size_t num_objects) const;

  static SpanDist fixed(std::size_t span) { return {SpanKind::kFixed, span, span, 0.5}; }
};

/// Piecewise-constant arrival-rate curve (e.g. a diurnal wave as a handful
/// of plateaus).  Empty = the driver's fixed arrival_interval_ns.  The
/// curve repeats cyclically, so a long run loops the day.
struct RateSegment {
  double ops_per_sec{0};
  TimeNs duration_ns{0};
};

struct RateCurve {
  std::vector<RateSegment> segments;
  /// Sampled-Poisson arrivals: when set, the pacer draws exponential
  /// inter-arrival gaps whose mean tracks the curve (or the driver's fixed
  /// interval when the curve is empty) instead of stepping by the constant
  /// segment interval.  Same nominal rate, CV ~1 instead of 0 — the memoryless
  /// burstiness real open-loop clients exhibit.  The draws come from a
  /// DEDICATED pacer RNG inside TrafficShard, so flipping this never perturbs
  /// the arrival-content stream (objects, spans, read/write mix).
  bool poisson{false};

  bool empty() const { return segments.empty(); }
  /// Inter-arrival gap for the segment containing `elapsed` (cyclic);
  /// `fallback` when the curve is empty.
  TimeNs interval_at(TimeNs elapsed, TimeNs fallback) const;
  void validate() const;  ///< throws std::invalid_argument on bad segments.
};

/// The composable production-traffic model.  One TrafficModel describes the
/// AGGREGATE offered load of `logical_clients` independent clients: since
/// superposed independent arrival processes merge into one process with the
/// summed rate, the engine emulates ~10^6 clients as a handful of paced
/// shard streams — a logical client is a stream identity tagging arrivals,
/// never a thread or a socket.
struct TrafficModel {
  double zipf_theta{0.0};        ///< hot-key popularity; 0 = uniform.
  bool permute_ranks{false};     ///< seeded hash rank->object map (hot-shard fix).
  std::uint64_t permute_seed{0x5eedf00dull};
  double read_fraction{0.9};     ///< P(arrival is a READ).
  SpanDist read_span{SpanDist::fixed(2)};
  SpanDist write_span{SpanDist::fixed(2)};
  RateCurve rate;                ///< empty = driver's fixed interval.
  std::uint64_t logical_clients{1};

  void validate(std::size_t num_objects) const;  ///< throws std::invalid_argument.
};

/// One arrival generated by a TrafficShard.
struct TrafficArrival {
  bool is_read{true};
  std::uint64_t logical_client{0};  ///< stream identity within the model population.
  std::vector<ObjectId> objects;    ///< distinct, sorted.
};

/// Per-driver-shard generator over a TrafficModel: deterministic per
/// (model, seed, client range).  Each shard owns a slice of the logical
/// client population and draws the tagging identity uniformly per arrival —
/// the superposition of iid per-client processes is exactly an aggregate
/// process with uniformly-random client labels.
class TrafficShard {
 public:
  TrafficShard(std::size_t num_objects, const TrafficModel& model, std::uint64_t seed,
               std::uint64_t client_lo, std::uint64_t client_hi);

  TrafficArrival next();
  TimeNs interval_at(TimeNs elapsed, TimeNs fallback) const {
    return model_.rate.interval_at(elapsed, fallback);
  }
  /// The pacer's inter-arrival gap.  poisson=false returns interval_at
  /// exactly (bit-compatible with every earlier checkin); poisson=true draws
  /// an exponential gap with that interval as its mean from the dedicated
  /// pacer RNG.
  TimeNs next_interval(TimeNs elapsed, TimeNs fallback);
  std::uint64_t client_lo() const { return client_lo_; }
  std::uint64_t client_hi() const { return client_hi_; }

 private:
  std::size_t num_objects_;
  TrafficModel model_;
  ZipfSampler zipf_;
  RankPermutation perm_;
  Xoshiro256 rng_;
  Xoshiro256 pacer_rng_;  ///< own stream: pacing never consumes arrival-content draws.
  std::uint64_t client_lo_;
  std::uint64_t client_hi_;
};

/// Per-client deterministic op-stream generator (seed-compatible legacy
/// path; identity rank->object map).
class OpStream {
 public:
  OpStream(std::size_t num_objects, const WorkloadSpec& spec, std::uint64_t client_seed);

  /// Distinct objects for the next multi-get/multi-put of width `span`.
  std::vector<ObjectId> next_objects(std::size_t span);

 private:
  std::size_t num_objects_;
  ZipfSampler zipf_;
  Xoshiro256 rng_;
};

}  // namespace snowkit

// Adaptive meta-protocol (ROADMAP item 5): per-object B<->C switching,
// watermark-proved client version caches, and cross-object read batching.
//
// The paper's cost matrix says Algorithm B pays 2 rounds / 1 version per
// READ and Algorithm C pays 1 round / <=|W|+1 versions; BENCH_adaptive.json
// shows which one wins flips with the read mix.  The adaptive
// layer picks the point per object at runtime WITHOUT touching the
// serialization rule:
//
//  * Every READ serializes exactly like Algorithm B — the coordinator cut
//    t_r = newest List position, each object served at latest[obj].  The
//    per-object mode only changes how the value for latest[obj] reaches the
//    reader, so adaptive histories are a subset of algo-b-reachable
//    histories by construction, under ANY mode mix or switch interleaving.
//  * Round 1 reaches every object of the READ, one ReadValsBatchReq per
//    server, in parallel with get-tag-arr (which rides the coordinator
//    shard's batch).  Each object names the version the reader holds (its
//    cached one, else the initial version) and the server leaves that
//    version out of its answer.
//  * B-mode (default, write-cold objects): the server answers the one
//    version it inserted last, algo-b's guess; a WRITE racing the READ can
//    refute it, and round 2 then fetches latest[obj] with one
//    ReadValBatchReq per server.
//  * C-mode (write-hot objects): the server answers its bounded version
//    list past the held version (and from the reader's read floor, the tag
//    of its last READ, up); when latest[obj] is in it the read finishes in
//    one round, Algorithm-C style, a racing WRITE or not.
//  * The coordinator's shard: the coordinator answers its objects, whatever
//    their mode, with the one version latest[obj] in the step that builds
//    the tag array, so those objects always resolve in round 1.
//  * Client cache: readers remember (key, value) per object from completed
//    READs.  A later READ serves the cached value iff the fresh tag array
//    proves the cached key IS still latest[obj] — keys name immutable
//    versions, so the proof is exact — and a hit costs no value bytes,
//    because the server left the held version out.  All cache state dies
//    on any TakeoverNotice epoch bump.
//
// The coordinator tracks per-object write rates with a lazily-decayed EWMA
// over update-coor write sets and flips modes with hysteresis (switch_up /
// switch_down).  Each flip bumps a mode epoch (ModeTable below).  Readers
// name the epoch they hold in get-tag-arr, and AdaptTagArrResp answers with
// the objects that flipped since then — a delta, not a k-wide table.
// Readers adopt only at equal-or-newer epochs, so reordered responses can
// never roll modes backwards, and a READ in flight completes under the plan
// it started with.  Switches are reported through
// Runtime::note_switch, which the sim's schedule recorder turns into
// kSwitch ScheduleLog annotations (replayable, ddmin-shrinkable).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "msg/payloads.hpp"
#include "proto/api.hpp"

namespace snowkit {

struct AdaptiveOptions {
  /// Which server shard acts as coordinator s* (index < server_count()).
  std::size_t coordinator{0};
  /// Watermark version GC (default on), exactly as in algo-b/algo-c.
  bool gc_versions{true};
  /// 1 = failure-free servers; 2 = WAL-backed primary/backup shards.
  std::size_t replicas{1};
  std::string wal_dir;
  bool unsafe_ack{false};

  /// B -> C when an object's EWMA write credit reaches switch_up; C -> B
  /// when it decays to switch_down.  The gap is the hysteresis band; the
  /// thresholds are deliberately low so small sim/fuzz workloads exercise
  /// both modes and the switch path.  Steady-state credit is write_rate*tau,
  /// so the defaults flip an object to its version list at a sustained ~2
  /// writes/s and back below ~0.5/s — a B-mode object whose guess a racing
  /// WRITE keeps refuting is exactly the one whose list resolves in one
  /// round.
  double switch_up{4.0};
  double switch_down{1.0};
  /// EWMA decay time constant: credit halves every tau*ln2 of runtime time.
  TimeNs ewma_tau_ns{2'000'000'000};

  /// Client version cache (default on).
  bool cache_reads{true};

  /// FAULT INJECTION ONLY (fuzz/broken_adaptive): serve any cached entry
  /// without the latest[obj] freshness proof — the stale-read bug the
  /// differential-fuzz battery must convict.
  bool broken_cache{false};

  /// System name reported to the registry/checkers.
  std::string name{"adaptive"};

  void validate() const;  ///< throws std::invalid_argument on bad knobs.
};

/// Counters the adaptive layer exposes for benches and the cache-invariant
/// property test.  Reader-side counters reconcile exactly: every object of
/// every tag-array resolution is either a cache hit or a cache miss, and
/// every miss is resolved by prefetch or by a round-2 fetch.
struct AdaptiveStats {
  std::uint64_t reads{0};                ///< completed READ transactions.
  std::uint64_t one_round_reads{0};      ///< completed without any round-2 fetch.
  std::uint64_t cache_hits{0};           ///< objects served from the client cache.
  std::uint64_t cache_misses{0};         ///< objects that failed the cache proof.
  std::uint64_t cache_invalidations{0};  ///< entries dropped on TakeoverNotice.
  std::uint64_t prefetch_resolved{0};    ///< misses resolved in round 1.
  std::uint64_t round2_objects{0};       ///< objects fetched via ReadValBatchReq.
  std::uint64_t switches{0};             ///< coordinator mode flips (note_switch calls).
};

/// The coordinator's per-object fetch-mode table (C-mode = readers prefetch
/// the object's version list in round 1).  Every flip bumps epoch() and
/// enters a flip log of at most k flips; answer() turns that log into a
/// reader's delta.  Advisory state: never replicated, reset with the lineage.
class ModeTable {
 public:
  explicit ModeTable(std::size_t num_objects) : k_(num_objects) {}

  bool c_mode(ObjectId obj) const { return c_objs_.count(obj) != 0; }
  std::uint64_t epoch() const { return epoch_; }

  /// Sets `obj`'s mode; returns true, having bumped the epoch, iff it flipped.
  bool set(ObjectId obj, bool c_mode);

  /// Fills `resp`'s mode fields for a reader whose table is at
  /// `reader_epoch`: a delta against it (base = reader_epoch) when the flip
  /// log reaches back that far and the delta lists no more objects than a
  /// snapshot would; otherwise a snapshot (base 0) — always for a reader at
  /// epoch 0 or ahead of this table.  A reader at this table's epoch gets
  /// the empty snapshot at epoch 0, which changes no table it adopts into.
  /// O(flips since reader_epoch) or O(|C|).
  void answer(std::uint64_t reader_epoch, AdaptTagArrResp& resp) const;

 private:
  std::size_t k_;                ///< bounds the flip log.
  std::set<ObjectId> c_objs_;    ///< the C-mode objects; all others are B.
  std::deque<ObjectId> flips_;   ///< the newest flips; back() made epoch_.
  std::uint64_t epoch_{0};
};

/// The coordinator's per-object write-rate tracker: a lazily-decayed EWMA of
/// each object's listed WRITEs that flips its ModeTable entry with
/// hysteresis.  It observes exactly the listing traffic: the server credits
/// it only for a newly listed WRITE, never for a deduplicated retry.  It
/// reads only Runtime::now_ns (virtual in the sim), so replayed schedules
/// re-derive identical switch sequences.  Advisory state: never replicated,
/// never WAL-logged, and reset with the lineage on crash, because modes only
/// shape messages, never the version a READ serves.
class WriteRateTracker {
 public:
  WriteRateTracker(std::size_t num_objects, double switch_up, double switch_down,
                   TimeNs ewma_tau_ns);

  /// Credits a listed WRITE of `objs` (ids < k, as CoorList::admits
  /// checked): decays each credit by exp(-dt/tau), adds 1, and flips the
  /// mode across the band, reporting each flip through Runtime::note_switch.
  /// O(|objs|).
  void observe(Runtime& rt, const std::vector<ObjectId>& objs);

  /// Crash: credits and modes die with the lineage; the switch count stays.
  void reset();

  const ModeTable& modes() const { return modes_; }
  std::uint64_t switches() const { return switches_; }

 private:
  std::size_t k_;
  double up_;
  double down_;
  TimeNs tau_ns_;
  ModeTable modes_;
  std::vector<double> ewma_;
  std::vector<TimeNs> ewma_last_;
  std::uint64_t switches_{0};
};

/// A reader's adopted copy of a coordinator's ModeTable.
class ModeView {
 public:
  bool c_mode(ObjectId obj) const { return c_objs_.count(obj) != 0; }
  std::uint64_t epoch() const { return epoch_; }

  /// Adopts `resp`'s table iff its epoch is at least ours and it applies:
  /// a snapshot replaces the table; a delta applies iff its base is at or
  /// below our epoch (the objects it omits cannot have flipped since).
  /// Returns whether it adopted.
  bool adopt(const AdaptTagArrResp& resp);

  /// Back to the all-B table at epoch 0: a new coordinator lineage.
  void reset() {
    c_objs_.clear();
    epoch_ = 0;
  }

 private:
  std::set<ObjectId> c_objs_;
  std::uint64_t epoch_{0};
};

/// ProtocolSystem refinement exposing the adaptive counters; callers that
/// built through the registry reach it via dynamic_cast.
class AdaptiveSystem : public ProtocolSystem {
 public:
  using ProtocolSystem::ProtocolSystem;
  virtual AdaptiveStats stats() const = 0;
};

std::unique_ptr<ProtocolSystem> build_adaptive(Runtime& rt, HistoryRecorder& rec,
                                               const SystemConfig& cfg,
                                               AdaptiveOptions opts = {});

}  // namespace snowkit

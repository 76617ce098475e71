// Shared multi-version storage with read-watermark garbage collection.
//
// Two pieces, kept by proto/version_server.hpp's VersionServer for algo-a,
// algo-b, algo-c, adaptive and occ-reads (and mirrored in spirit by eiger's
// version chains):
//
//  * VersionStore — one per-object version chain: the `Vals ⊆ K × V_i` set of
//    the paper's pseudocode (§5.2), extended with finalization metadata and a
//    watermark.  The initial version (kappa_0, v0) is present from the start
//    and finalized at List position 0.
//
//  * CoorList — the coordinator's List of (kappa, b_1..b_k) WRITE entries
//    (Pseudocode 6), each received as its write set {i : b_i = 1} and kept as
//    incrementally-maintained per-object key histories plus the
//    read-watermark bookkeeping: the max finalized position and the floors
//    of in-flight READs.
//
// The watermark rule.  Let G be the newest List position whose WRITE has
// completed (the coordinator learns completion from finalize-coor notices).
// Every READ is registered at the coordinator when its get-tag-arr is served,
// with floor = G at that instant, one slot per reader node.  The reader's
// next READ replaces that slot (and advances W) when it registers; a reader
// that begins no READ within kReadDoneLinger of its last completion
// deregisters with a read-done notice instead.  The read watermark is
//
//     W = min(G, min over registered READs of their floor).
//
// A completed READ that stays registered only holds W lower than needed,
// never above a floor some in-flight READ relies on.
//
// A store that has advanced its watermark to W retains, per object, the
// newest finalized version at position <= W (the anchor), every finalized
// version above W, and every unfinalized version; everything else is pruned.
// This is safe because no in-flight or future READ can legally be served a
// version below the anchor:
//
//  * a READ registered with floor f never needs a version older than the
//    newest listed position <= f per object (its feasibility descent bottoms
//    out at cuts >= the anchor; positions <= f had their write-vals processed
//    before listing), and
//  * every watermark ever disseminated satisfies W <= f for every READ that
//    is in flight at prune time or starts later, because G is monotone and a
//    new READ's floor is the G of a later instant.
//
// Watermarks travel on existing messages only: update-coor acks carry W to
// writers, writers forward it on their finalize fan-out, tag arrays carry it
// to readers, and readers piggyback it on read-val-batch — advancement costs
// no extra round anywhere.  A read-vals-batch carries a read floor instead
// (VersionStore::chain_from): it trims one response and prunes nothing.  tests/version_store_gc_property_test.cpp checks the
// retention invariant, watermark monotonicity and the bounded-chain-length
// consequence against a keep-everything reference model.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "msg/message.hpp"
#include "msg/payloads.hpp"

namespace snowkit {

class Placement;

/// One object's version chain with watermark GC.  Deterministic: iteration
/// is in WriteKey order everywhere, so identical op sequences produce
/// byte-identical wire responses.
class VersionStore {
 public:
  explicit VersionStore(Value initial = kInitialValue);
  ~VersionStore();

  VersionStore(const VersionStore&) = delete;
  VersionStore& operator=(const VersionStore&) = delete;

  /// Adds an (unfinalized) version.  Overwriting the same key is allowed and
  /// keeps its finalization state.  Either way `key` becomes last_inserted().
  void insert(const WriteKey& key, Value value);

  /// Marks `key` as the WRITE listed at `position` and prunes any finalized
  /// versions it supersedes at or below the current watermark.  The version
  /// must be present (write-val precedes update-coor, which precedes any
  /// finalize — a miss is a protocol bug).
  void finalize(const WriteKey& key, Tag position);
  /// Whether finalize(key, position) would pass its checks: `key` is held
  /// and `position` is not finalized under another key.  Finalize frames are
  /// untrusted, so a server drops one naming a version that fails this.
  bool can_finalize(const WriteKey& key, Tag position) const;
  /// Whether finalize(key, position) would change nothing: `key` is held
  /// and already finalized, or it is gone and the anchor is newer than
  /// `position` (it was pruned).  A finalize re-sent after a failover is
  /// such a no-op.
  bool finalize_is_noop(const WriteKey& key, Tag position) const;

  /// Raises the watermark (lower values are ignored — watermarks are
  /// monotone) and prunes finalized versions strictly below the new anchor.
  void advance_watermark(Tag w);

  bool has(const WriteKey& key) const { return vals_.count(key) != 0; }

  Value get(const WriteKey& key) const {
    auto it = vals_.find(key);
    SNOW_CHECK_MSG(it != vals_.end(), "version " << to_string(key) << " not in Vals");
    return it->second.value;
  }

  std::optional<Value> try_get(const WriteKey& key) const {
    auto it = vals_.find(key);
    if (it == vals_.end()) return std::nullopt;
    return it->second.value;
  }

  /// The live chain in key order: exactly what a bounded read-vals response
  /// carries.  With the watermark flowing this is at most (unfinalized
  /// versions, i.e. concurrent WRITEs) + (finalized above the watermark) + 1.
  std::vector<Version> all() const;
  /// The live chain less the finalized versions older than the newest one
  /// at or below `floor`: all a READ can need that will cut at `floor` or
  /// above (ReadValsBatchReq::floor).  all() when `floor` is at or below
  /// the watermark.
  std::vector<Version> chain_from(Tag floor) const;
  /// What a reader holding `held` can still need: chain_from(floor), from
  /// `held`'s List position instead when that is higher (no later READ cuts
  /// below the version a READ saw as latest), less `held` itself.
  std::vector<Version> chain_past(const WriteKey& held, Tag floor) const;

  /// The key insert() stored last (kInitialKey before any insert): the
  /// version a reader without the tag array is most likely to want.  It may
  /// be pruned since; try_get() then misses.
  const WriteKey& last_inserted() const { return last_; }

  bool erase(const WriteKey& key);

  std::size_t size() const { return vals_.size(); }
  Tag watermark() const { return watermark_; }
  /// Versions this chain has retired (local counter, for tests/metrics).
  std::uint64_t pruned() const { return pruned_; }

 private:
  struct Slot {
    Value value{kInitialValue};
    Tag position{kInvalidTag};  ///< List position once finalized.
  };

  void prune_();

  std::map<WriteKey, Slot> vals_;
  std::map<Tag, WriteKey> by_pos_;  ///< finalized versions by List position.
  WriteKey last_{kInitialKey};
  Tag watermark_{0};
  std::uint64_t pruned_{0};
};

/// The coordinator's List with incremental per-object indexes and the read
/// watermark.  Replaces the O(list) scans of the original servers: latest()
/// and history() are O(1)/O(live entries), and entries below the watermark
/// are dropped (each object keeps its anchor), which bounds both coordinator
/// memory and the tag-array history payload.
class CoorList {
 public:
  explicit CoorList(std::size_t num_objects);

  /// Appends a List entry for the WRITE of `objs` (ids < k, as admits()
  /// checks); returns its position.  O(|objs|).
  Tag push(const WriteKey& key, const std::vector<ObjectId>& objs);

  /// The same from a full-width b_1..b_k mask: an O(k) adapter kept only
  /// for snowbench/replay.cpp, which still builds masks.
  Tag push(const WriteKey& key, const std::vector<std::uint8_t>& mask);

  /// update-coor write sets are untrusted wire input: true iff `uc` names at
  /// least one object and only ids < k.  Otherwise logs a warning, and the
  /// server drops the request before it reaches push() or the replicated log.
  bool admits(NodeId from, const UpdateCoorReq& uc) const;

  /// Newest position handed out (Lemma-20 P2's t_r).
  Tag tag() const { return count_ - 1; }

  /// Marks the WRITE at `position` complete; may advance the watermark.
  void finalize(Tag position);
  /// Whether finalize(position) would change nothing.
  bool finalized(Tag position) const { return position <= max_finalized_; }

  /// Registers/deregisters the in-flight READ of `reader` for watermark
  /// accounting.  Keyed by sender and guarded by the READ's txn id (monotone
  /// per client): re-registration overwrites — a retry re-pins, a newer
  /// READ releases the last one's floor and may advance the watermark — and
  /// a reordered stale done-notice — one whose txn is older than the
  /// registered READ — is ignored, so it can never unpin a newer READ.
  Tag register_reader(NodeId reader, TxnId txn);
  void reader_done(NodeId reader, TxnId txn);

  Tag watermark() const { return watermark_; }

  /// Newest key listed for `obj`.
  const WriteKey& latest(ObjectId obj) const { return latest_.at(obj); }

  /// The live (position-ascending) key history for `obj`: its anchor — the
  /// newest entry at or below the watermark — plus every entry above it.
  const std::deque<ListedKey>& history(ObjectId obj) const { return history_.at(obj); }

  /// The get-tag-arr answer: Pseudocode 6's tag array restricted to the
  /// READ's objects `objs`, each with latest() and — for Algorithm C,
  /// `with_history` — its live history().  O(|objs|), independent of k.
  /// Ids >= k, which only a malformed request can name, are skipped.
  GetTagArrResp tag_arr(const std::vector<ObjectId>& objs, bool with_history) const;

  /// Live history entries across all objects (occupancy metric).
  std::size_t entries() const;

 private:
  void advance_();

  std::size_t k_;
  Tag count_{1};         ///< List length including the initial entry.
  Tag max_finalized_{0};
  Tag watermark_{0};
  std::vector<std::deque<ListedKey>> history_;
  std::vector<WriteKey> latest_;
  /// Objects whose history holds >= 2 entries, in no particular order: the
  /// only ones a watermark advance can trim.
  std::vector<ObjectId> trimmable_;

  struct ReaderSlot {
    TxnId txn{kInvalidTxn};
    Tag floor{0};
  };
  std::map<NodeId, ReaderSlot> floors_;  ///< in-flight READ floors by reader node.
};

/// A reader's get-tag-arr for a READ over `objs` (any order): the ids
/// sorted and de-duplicated, as the wire format requires.
GetTagArrReq tag_arr_req(std::vector<ObjectId> objs);

/// A WRITE's object set W (update-coor, info-reader): its objects sorted and
/// de-duplicated, as the wire format requires.
std::vector<ObjectId> write_set(const std::vector<std::pair<ObjectId, Value>>& writes);

/// A WRITE's write-vals, one per server shard under `place`, keyed by shard:
/// each carries that shard's objects in ascending order with their values.
std::map<std::size_t, WriteValReq> write_vals_by_shard(
    const Placement& place, const WriteKey& key,
    const std::vector<std::pair<ObjectId, Value>>& writes);

/// A READ's exact-key fetches, one read-val-batch per server shard under
/// `place`, keyed by shard: each names that shard's objects of `keys` in
/// ascending order with their keys and carries `watermark`.
std::map<std::size_t, ReadValBatchReq> read_batches_by_shard(
    const Placement& place, Tag watermark, const std::map<ObjectId, WriteKey>& keys);

/// A READ's version-list fetches, one read-vals-batch per server shard under
/// `place`, keyed by shard: each names that shard's objects of `objs` (any
/// order, no repeats) in ascending order and carries the read `floor`.
std::map<std::size_t, ReadValsBatchReq> read_batches_by_shard(const Placement& place,
                                                              Tag floor,
                                                              std::vector<ObjectId> objs);

/// Applies one state mutation — kInsert, kFinalize (finalize + watermark
/// advance) or kCoorFinalize — to a server's stores and List.  The one place
/// these records take effect: a replicated server's log (Replicator) and an
/// unreplicated server's write path (VersionServer) both land here.
void apply_store_record(const ReplRecord& rec, std::map<ObjectId, VersionStore>& stores,
                        std::optional<CoorList>& list);

}  // namespace snowkit

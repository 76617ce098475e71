// The version server of Pseudocodes 5-7, and the fleet every protocol built
// on it shares: algo-a, algo-b, algo-c, adaptive and occ-reads.
//
// In the paper Algorithms B and C share the writer and the server's write
// path; they differ only in how a READ is served.  So one Node serves all of
// them.  Every server keeps per-object Vals version stores; the coordinator
// s* also keeps the List (a CoorList) and answers get-tag-arr / update-coor.
// One server may host many objects under a sharded Placement; every request
// names its object, so the stores stay disjoint.
//
// A write-val names the node its ack goes to (wire v10): s*'s primary, which
// lists the WRITE once every written server has reported its inserts stored
// (proto/pending_listings.hpp), or none, and then the ack goes back to the
// sender (algo-a's writer).  The ack leaves once the inserts commit, so on a
// replicated shard "acknowledged means replicated" covers the acks relayed
// to s* too.  s*'s own share of a WRITE rides the write-val that carries the
// update-coor; s* holds those inserts in its listing gate and commits them
// in the same step (one replication batch) as the List push.
//
// Every READ round reaches a server as one frame naming all of the READ's
// objects it hosts, and the server answers it with one frame: read-val-batch
// asks for exact keys (A, B's round 2, occ's rounds, adaptive's round 2) and
// read-vals-batch for live version chains (C's round, adaptive's prefetch).
// On the coordinator's shard a read-vals-batch may also carry the READ's
// get-tag-arr; the coordinator answers it in the same response, registering
// the READ and building the tag array before it reads the stores, and any
// other server answers the batch and drops that part with a warning.  A
// coordinator that ships no List history (algo-b, adaptive) answers such a
// folded batch with one version per object, the one the tag array names;
// in an algo-b fleet every other server answers its batches with one
// version per object too, the one it inserted last.  Any other batch gets
// each object's live chain from the reader's read floor up
// (ReadValsBatchReq::floor).  No handler asks which protocol it serves.  Payload tags 8-11, the
// per-object read-val and read-vals that no reader has sent since
// snowkit-wire-v5, are reserved: the decoder rejects them.  Reads are
// answered at once (N), from committed state, with the versions named: a key
// that is not (or no longer) in Vals is answered with found == false.  That
// is reachable for occ's speculative keys, after a failover GC'd past a key
// an old lineage promised, and for requests no correct reader sends — none
// of them may abort the server, and neither may a request naming an object
// id >= k, which is dropped.
// The only per-protocol parts live at the coordinator: what its get-tag-arr
// reply carries (latest keys, with algo-c's history, or adaptive's
// AdaptTagArrResp with a mode delta) and adaptive's write-rate tracker.
//
// With `gc` on, the watermark flow of proto/version_store.hpp is active:
// finalize notices, read piggybacks and the coordinator's own List raise
// one server watermark, and every store a request touches advances to it
// and prunes superseded versions.  With a Replicator (replicas 2) state mutations
// ride the replicated log, write acks wait for the backup, and the node
// survives crash/restart through its WAL (proto/replica.hpp).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/registry.hpp"
#include "proto/adaptive/adaptive.hpp"
#include "proto/api.hpp"
#include "proto/pending_listings.hpp"
#include "proto/replica.hpp"
#include "proto/version_store.hpp"

namespace snowkit {

class VersionServer final : public Node {
 public:
  struct Config {
    std::size_t num_objects{0};
    bool is_coordinator{false};
    /// Watermark version GC: finalize notices and read piggybacks apply.
    bool gc{false};
    /// Algorithm C: get-tag-arr replies carry each object's live history.
    bool tag_history{false};
    /// Algorithm B: a read-vals-batch with no folded get-tag-arr is answered
    /// with one version per object, the one its store inserted last.
    bool last_inserted_reads{false};
    /// Adaptive's coordinator: the write-rate tracker; the get-tag-arr reply
    /// becomes an AdaptTagArrResp with the tracker's mode delta.
    std::optional<WriteRateTracker> tracker;
    /// Set for replicas 2, together with `wal`.
    std::optional<Replicator::Config> repl;
    std::unique_ptr<WalStorage> wal;
  };

  explicit VersionServer(Config cfg);

  void on_start() override;
  bool supports_crash() const override { return repl_ != nullptr; }
  void on_crash() override;
  void on_message(NodeId from, const Message& m) override;

  /// Adaptive's coordinator only; null elsewhere.
  const WriteRateTracker* tracker() const { return tracker_ ? &*tracker_ : nullptr; }

 private:
  bool misrouted(NodeId from, const Message& m) const;
  /// Object ids are untrusted: a request naming one >= k would make a store
  /// for it.  True (and a warning) if `m` names any.
  bool names_unknown_object(NodeId from, const Message& m) const;
  /// True (and a warning) if `fin` names a version one of its stores does
  /// not hold, or a List position finalized under another key: applying it
  /// would trip VersionStore::finalize's checks.
  bool names_unfinalizable_version(NodeId from, const FinalizeReq& fin) const;
  bool serve_read(NodeId from, const Message& m);
  bool handle_write_path(NodeId from, const Message& m);
  /// s*: `from`'s update-coor, standalone (`own` empty) or folded into the
  /// write-val whose writes are `own`.  A replicated retry the log already
  /// answers is re-acked or dropped; otherwise it enters the listing gate.
  void handle_update_coor(NodeId from, TxnId txn, const UpdateCoorReq& uc,
                          const std::vector<std::pair<ObjectId, Value>>& own);
  /// s*'s listing gate, emptied when this replica's epoch moves.
  PendingListings& listings();
  /// Lists `w`: s*'s own inserts and the List push commit as one step
  /// (one replication batch), then the writer gets its update-coor-ack.
  void list_write(PendingListings::Ready w);
  /// Registers `from`'s READ `txn` for watermark accounting and builds the
  /// reply to its get-tag-arr, standalone or folded into a read-vals-batch.
  TagArrReply answer_tag_arr(NodeId from, TxnId txn, const GetTagArrReq& gt);
  /// Raises the server's watermark to `w` (and, on the coordinator, to its
  /// List's) and returns it.  W is one global List position, so the newest
  /// one seen from any finalize, read piggyback or the List is safe for
  /// every store here.
  Tag note_watermark(Tag w);
  /// `obj`'s store, its watermark advanced to note_watermark(`watermark`).
  VersionStore& store(ObjectId obj, Tag watermark);

  std::size_t k_;
  bool is_coordinator_;
  bool gc_;
  bool tag_history_;
  bool last_inserted_reads_;
  std::map<ObjectId, VersionStore> stores_;    ///< per hosted object.
  Tag watermark_{0};                           ///< the newest watermark seen.
  std::optional<CoorList> list_;               ///< coordinator only.
  PendingListings listings_;                   ///< coordinator only; see listings().
  std::uint64_t listings_epoch_{0};            ///< the replica epoch listings_ belongs to.
  std::unique_ptr<Replicator> repl_;           ///< replicas 2 only.
  std::optional<WriteRateTracker> tracker_;    ///< adaptive coordinator only.
};

// --- the shared fleet --------------------------------------------------------

/// The settings a protocol picks for its VersionServer fleet.
struct VersionFleetSpec {
  std::size_t coordinator{0};  ///< coordinator shard s*.
  bool gc_versions{true};
  std::size_t replicas{1};     ///< 1, or 2 for primary/backup shards.
  std::string wal_dir;         ///< empty: in-memory WALs.
  bool unsafe_ack{false};      ///< FAULT INJECTION ONLY (Replicator::Config).
  bool tag_history{false};     ///< VersionServer::Config::tag_history.
  bool last_inserted_reads{false};  ///< VersionServer::Config::last_inserted_reads.
  /// Adaptive: the coordinator's tracker, copied into its primary and its
  /// backup.  Empty elsewhere.
  std::optional<WriteRateTracker> tracker;
};

/// The client nodes of an assembled fleet, plus its coordinator servers.
struct VersionFleet {
  std::vector<ReadClient*> readers;
  std::vector<WriteClient*> writers;
  std::vector<const VersionServer*> coordinators;  ///< primary, then backup.
};

/// Makes one reader node; `place` is the fleet's placement and `replicated`
/// whether shards have backups.
using MakeReader =
    std::function<std::unique_ptr<ReadClient>(const Placement& place, bool replicated)>;

/// Assembles a VersionServer fleet: validates `cfg` and `spec` (throwing
/// std::invalid_argument), then registers the servers at node ids [0, s),
/// `cfg.num_readers` readers made by `make_reader`, the CoorWriters, and with
/// replicas 2 the backups at SystemConfig::backup_node — each with its WAL
/// and Replicator::Config.
VersionFleet build_version_fleet(Runtime& rt, HistoryRecorder& rec, const SystemConfig& cfg,
                                 const VersionFleetSpec& spec, const MakeReader& make_reader);

/// The registry keys every replicable VersionServer protocol shares:
/// coordinator, gc_versions, replicas, wal_dir and unsafe_ack.
template <typename Options>
void read_fleet_options(const BuildOptions& in, Options& out) {
  out.coordinator = static_cast<std::size_t>(in.get_int("coordinator", 0));
  out.gc_versions = in.get_bool("gc_versions", true);
  out.replicas = static_cast<std::size_t>(in.get_int("replicas", 1));
  out.wal_dir = in.get("wal_dir", "");
  out.unsafe_ack = in.get_bool("unsafe_ack", false);
}

/// The fleet spec of those five settings in a protocol's options struct.
template <typename Options>
VersionFleetSpec fleet_spec(const Options& o) {
  VersionFleetSpec spec;
  spec.coordinator = o.coordinator;
  spec.gc_versions = o.gc_versions;
  spec.replicas = o.replicas;
  spec.wal_dir = o.wal_dir;
  spec.unsafe_ack = o.unsafe_ack;
  return spec;
}

}  // namespace snowkit

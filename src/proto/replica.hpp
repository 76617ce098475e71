// Per-shard primary/backup replication with a write-ahead log and failover.
//
// The paper's model has failure-free servers; snowkit's fleets run on real
// processes that die.  This layer makes each server shard a 2-replica group:
//
//   * The PRIMARY serves all client traffic and streams its state mutations
//     (VersionStore inserts/finalizes, CoorList pushes/finalizes) to the
//     BACKUP as a sequenced log of ReplRecords.  A client message that
//     someone waits on is one batch — a write-val's inserts, an
//     update-coor's push — written to the local WAL with one fdatasync and
//     shipped as one ReplAppendReq before its ack.  A finalize's records
//     (the per-object finalizes plus the coordinator's) have no waiter:
//     they apply at once and ride at the front of the next such batch, or
//     ship alone once they have waited kFinalizeLinger.
//
//   * Acknowledged means replicated: the primary defers WriteValAck and
//     UpdateCoorAck until the backup has acked the covering log prefix (or
//     the backup is known dead, in which case it commits solo).  That holds
//     for the WriteValAcks a server relays to s* (wire v10) as for any
//     other, so s* lists a WRITE only on replicated inserts; s*'s own
//     inserts ride the same batch as the List push.  A List
//     entry is not applied to the CoorList — and therefore never visible to
//     any get-tag-arr — until that moment, so no READ can observe a listing
//     that a crash could un-happen.  SNOW's N is preserved: reads are served
//     immediately from the primary's already-committed state and never wait
//     on replication.
//
//   * On primary death (NodeDownNotice from Runtime::watch_node) the backup
//     replays nothing — it already applied the stream — bumps its EPOCH,
//     persists the new role to its WAL, and broadcasts a TakeoverNotice to
//     every client node.  Clients re-route the shard and re-send un-acked
//     requests — for s*'s shard every write-val of the unlisted WRITE and its
//     update-coor, since s*'s listing gate is primary-local; update-coor
//     retries are deduplicated by (writer, txn) so a WRITE listed by the old
//     lineage is re-acked, never double-listed.
//
//   * Epochs fence stale primaries: any replication message carrying a
//     higher epoch demotes the receiver to backup, which drops its un-fired
//     ack waiters (the writers have been re-routed) and rejoins with a full
//     resync (`was_primary` forces it — a deposed primary's log tail may
//     contain records the new lineage never saw).
//
//   * A restarted node NEVER resumes primacy: it recovers epoch + log from
//     its WAL, comes back as backup, and sends ReplJoinReq.  The join
//     response carries the catch-up records inline (incremental when the
//     joiner's log is a provable prefix of the primary's: same epoch and it
//     was never primary; full reset otherwise).
//
// Known limitation (documented in docs/ARCHITECTURE.md): with 2 replicas and
// a timeout failure detector (NetRuntime), a false suspicion makes the
// primary commit solo while the live backup falls behind; a subsequent real
// crash of the primary can then lose those solo-committed writes.  The
// simulator's detector is exact, so recorded schedules never hit this; the
// net failover smoke kills processes for real.
//
// WAL format (`snowkit-wal-v3`): the magic line, then length-prefixed
// batches [u32le len][encode_message(ReplAppendReq)][u64le FNV-1a(payload)].
// Payloads use the wire codec, in the bytes of snowkit-wire-v8 (v9 kept
// them): a 1-byte kInvalidTxn envelope and records that carry only their
// kind's fields, so a kListPush record costs O(|W|) bytes for the WRITE's
// object set (ascending, gap-coded).  v1 logged
// a k-bit mask instead and v2 full-field records under a 10-byte envelope;
// both are refused by name rather than misread.  A batch holds every record
// of one handler step, after any deferred finalize steps it carries, so a
// torn tail always ends at a step boundary: a write-val's inserts are
// recovered all together or not at all.
// Any malformed, checksum-failing, short, or non-contiguous trailing batch
// is a torn tail: replay recovers the preceding prefix and stops.  Epoch and
// role changes are persisted as local-only kEpoch records that never ship
// and never consume a log sequence number; one that arrives from the peer
// anyway is dropped with a warning.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "msg/message.hpp"
#include "msg/payloads.hpp"
#include "proto/version_store.hpp"

namespace snowkit {

// --- write-ahead log storage -------------------------------------------------

inline constexpr char kWalMagic[] = "snowkit-wal-v3\n";
inline constexpr std::size_t kWalMagicLen = sizeof(kWalMagic) - 1;

/// Durable append-only byte storage for one replica's WAL.
class WalStorage {
 public:
  virtual ~WalStorage() = default;
  /// Appends `bytes` durably (visible to read_all after a crash).
  virtual void append(const std::vector<std::uint8_t>& bytes) = 0;
  virtual std::vector<std::uint8_t> read_all() = 0;
  /// Truncates to empty (full resync discards the old lineage).
  virtual void reset() = 0;
};

/// In-memory WAL for SimRuntime: a crashed node's OBJECT survives
/// (SimRuntime::crash only runs on_crash), so the byte vector plays the role
/// of the surviving disk.
class MemWal final : public WalStorage {
 public:
  void append(const std::vector<std::uint8_t>& bytes) override {
    bytes_.insert(bytes_.end(), bytes.begin(), bytes.end());
  }
  std::vector<std::uint8_t> read_all() override { return bytes_; }
  void reset() override { bytes_.clear(); }

  /// Test hook: the raw bytes, for torn-tail corruption experiments.
  std::vector<std::uint8_t>& bytes() { return bytes_; }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// File-backed WAL for daemons.  Lazy-open on first use: in multi-process
/// fleets every process constructs every node, but only the owner ever
/// appends or reads, so non-owners never touch the file.  Appends are
/// ::write + ::fdatasync — one batch, one durable point.
class FileWal final : public WalStorage {
 public:
  explicit FileWal(std::string path) : path_(std::move(path)) {}
  ~FileWal() override;

  void append(const std::vector<std::uint8_t>& bytes) override;
  std::vector<std::uint8_t> read_all() override;
  void reset() override;

 private:
  void open_();

  std::string path_;
  int fd_{-1};
};

// --- WAL framing & replay ----------------------------------------------------

/// Frames one batch for the WAL: [u32le len][encode_message payload][u64le
/// FNV-1a of payload].
std::vector<std::uint8_t> wal_frame_batch(const ReplAppendReq& batch);

struct WalReplayResult {
  std::vector<ReplRecord> records;  ///< the recovered log prefix, in order.
  std::uint64_t epoch{0};           ///< newest persisted epoch.
  bool was_primary{false};          ///< role at the newest kEpoch record.
  bool fresh{true};                 ///< no magic yet: first boot.
  bool torn{false};                 ///< trailing garbage was discarded.
};

/// Recovers the longest valid prefix of a WAL byte stream.  A bad frame
/// (short, checksum mismatch, undecodable, wrong payload type, or a
/// first_seq that does not extend the log contiguously) ends replay with
/// torn=true.  Bytes that exist but do not start with the magic throw
/// std::invalid_argument — that is corruption of the head, not a torn tail;
/// a `snowkit-wal-v1` or `-v2` head gets its own message naming it.
WalReplayResult wal_replay(const std::vector<std::uint8_t>& bytes);

// --- the replica state machine -----------------------------------------------

/// How long a primary holds records no one waits on (a finalize's) for the
/// next batch that has a commit waiter before it ships them alone.
inline constexpr TimeNs kFinalizeLinger = 10'000'000;  // 10 ms

/// One shard replica's replication engine, embedded in a server Node.  The
/// server forwards every incoming message to consume() first, drops client
/// traffic while is_primary() is false, and routes its state mutations
/// through append().  All calls happen on the owning node's executor.
class Replicator {
 public:
  struct Config {
    std::size_t shard{0};
    NodeId self{kInvalidNode};
    NodeId peer{kInvalidNode};
    bool start_primary{true};
    bool has_list{false};        ///< coordinator shard (owns a CoorList).
    /// k: rebuilds the CoorList on reset; records naming an id >= k drop.
    std::size_t num_objects{0};
    std::vector<NodeId> notify;  ///< client nodes told on takeover.
    /// FAULT INJECTION ONLY (fuzz/broken_lostack): ack writers immediately,
    /// before the backup confirms — the lost-acknowledged-write bug the
    /// crash schedules must convict.
    bool unsafe_ack{false};
  };

  using SendFn = std::function<void(NodeId, Message)>;
  /// Runs a task on the owning node's executor after a delay (Runtime::post_after).
  using PostAfterFn = std::function<void(TimeNs, std::function<void()>)>;
  using CommitFn = std::function<void()>;

  Replicator(Config cfg, std::unique_ptr<WalStorage> wal, SendFn send, PostAfterFn post_after,
             std::map<ObjectId, VersionStore>* stores, std::optional<CoorList>* list);

  bool is_primary() const { return primary_; }
  /// boot() has run since construction or the last on_crash().
  bool booted() const { return booted_; }
  NodeId peer_node() const { return cfg_.peer; }
  std::uint64_t epoch() const { return epoch_; }
  std::size_t log_size() const { return log_.size(); }

  /// Boot (on_start and on_restart): replays the WAL, recovers epoch/log,
  /// applies the log to the owning server's stores/list, and — unless this
  /// is the configured first-boot primary — rejoins the peer as backup.
  void boot();

  /// Crash (SimRuntime): volatile state dies; the WAL survives.
  void on_crash();

  /// Handles every replication payload plus NodeDownNotice.  Returns true
  /// when the message was consumed.
  bool consume(NodeId from, const Message& m);

  /// Backup-side handling of client traffic (the sender holds a stale route
  /// from before a takeover): answers at once with a TakeoverNotice naming
  /// the peer at our epoch, and the request's txn, so it is the answer to
  /// that request (N).  A synced backup's epoch IS the primary's, strictly
  /// newer than the sender's stale route.  While our own rejoin is in
  /// flight it may be stale and the sender ignores it; that sender is then
  /// re-routed by the takeover broadcast that must follow — the peer's, or
  /// ours if we promote — and re-sends there.  Silently dropping instead
  /// would break N, and parking until the join resolves breaks it too: the
  /// replica consumes other inputs before it answers.
  void redirect_client(NodeId from, const Message& m);

  /// The List position the next append()ed kListPush will commit at (its
  /// entry is applied only at commit, so this accounts pending pushes).
  Tag next_push_position() const;

  /// Update-coor retry dedup, keyed by writer node (one outstanding WRITE
  /// per writer) and txn.  kStale: the writer has since listed a newer
  /// WRITE, so this is a retry of one that completed, overtaken by its
  /// successor's update-coor; listing it again would list it twice.
  enum class PushStatus { kNew, kPending, kCommitted, kStale };
  PushStatus check_push(NodeId writer, TxnId txn) const;
  Tag committed_position(NodeId writer) const;

  /// Appends every record one handler step produces (the kInserts of a
  /// write-val, the kFinalizes and kCoorFinalize of a finalize, one
  /// kListPush) to the replicated log (primary only).  Non-push kinds apply
  /// to the local state immediately.  A batch with a commit waiter ships at
  /// once, after the deferred records below, as ONE batch: one WAL frame,
  /// one fdatasync, one ReplAppendReq and one backup ack; `on_commit` fires
  /// once the whole batch is covered by that ack — or immediately when the
  /// backup is down (solo) or unsafe_ack is set.  A batch with a null
  /// `on_commit` is not shipped alone while the backup lives: it waits,
  /// without a log sequence number, for the next batch that has a waiter,
  /// or ships on its own once it has waited kFinalizeLinger.  It must hold
  /// no kListPush, which applies only at commit.
  void append(std::vector<ReplRecord> recs, CommitFn on_commit);

 private:
  struct Waiter {
    std::uint64_t seq{0};     ///< commit when acked_seq_ >= seq (the batch end).
    std::size_t first{0};     ///< log_ index of the batch's first record.
    CommitFn fn;
  };
  struct PushInfo {
    TxnId txn{kInvalidTxn};
    Tag position{0};
    bool committed{false};
  };

  void apply_record(const ReplRecord& rec);
  /// Applies a record the peer shipped or the WAL replayed, or drops it
  /// with a warning when unappliable() names a reason: a forged or corrupt
  /// record must not abort this replica.  It stays in the log either way,
  /// so sequence numbers keep matching the peer's.
  void apply_peer_record(const ReplRecord& rec);
  /// Why `rec` cannot take effect on this replica's state (an object id
  /// >= k, a finalize of a version it does not hold, a List record without
  /// a List or off its next position); null when it can.
  const char* unappliable(const ReplRecord& rec) const;
  /// Logs `recs` at the end of log_ as one batch (WAL frame and, unless
  /// solo, one ReplAppendReq) and commits it as append() describes.
  void ship(std::vector<ReplRecord> recs, CommitFn on_commit);
  /// Drops the deferred records and invalidates their linger timer.
  void drop_deferred();
  /// Ships the deferred records as one batch of their own, if any.
  void ship_deferred();
  void commit_range(std::size_t first, std::size_t end);
  void flush_ready();
  void flush_all();
  void persist_epoch();
  void takeover();
  void demote(std::uint64_t new_epoch);
  void on_append(NodeId from, const ReplAppendReq& ar);
  void ingest(const ReplAppendReq& ar);
  void on_ack(const ReplAppendAck& ak);
  void on_join(NodeId from, const ReplJoinReq& jr);
  void on_join_resp(const ReplJoinResp& js);
  void on_peer_down(NodeId node);
  void send_ack(NodeId to);
  void drain_buffered();

  Config cfg_;
  std::unique_ptr<WalStorage> wal_;
  SendFn send_;
  PostAfterFn post_after_;
  std::map<ObjectId, VersionStore>* stores_;
  std::optional<CoorList>* list_;

  bool booted_{false};
  bool primary_{false};
  /// True while this replica's log tail is not provably a prefix of the
  /// current lineage (it is or was a primary).  Persisted in kEpoch records;
  /// forces a full resync on rejoin; cleared only by a reset.
  bool tainted_{false};
  std::uint64_t epoch_{0};
  std::vector<ReplRecord> log_;
  std::uint64_t acked_seq_{0};
  bool peer_alive_{true};
  std::size_t pending_pushes_{0};
  std::deque<Waiter> waiters_;
  /// Applied records no one waits on, not yet logged: the front of the next
  /// batch shipped (primary with a live backup only).
  std::vector<ReplRecord> deferred_;
  /// Bumped whenever deferred_ empties, so an older linger timer is a no-op.
  std::uint64_t linger_gen_{0};
  std::map<std::uint64_t, std::vector<ReplRecord>> buffered_;  ///< out-of-order batches.
  std::map<NodeId, PushInfo> dedup_;
  /// A peer's join received while we were still backup with the higher node
  /// id: answered by takeover() once our NodeDownNotice arrives.
  std::optional<ReplJoinReq> pending_join_;
  /// Our own rejoin is in flight: the local epoch may be stale, and only a
  /// join response is applied while it is (on_join_resp).
  bool joining_{false};
};

}  // namespace snowkit

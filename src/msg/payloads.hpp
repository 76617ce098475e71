// Typed message payloads for every protocol in the library.
//
// One shared payload vocabulary keeps the codec in one place and lets the
// SNOW monitors (checker/snow_monitor) classify traffic without knowing
// which protocol produced it.  Payload names follow the paper's pseudocode:
// write-val / info-reader / update-coor / get-tag-arr / read-val / read-vals
// (Pseudocodes 4-7), plus the mini-Eiger, blocking-2PL, simple and naive
// protocol messages that serve as comparators.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <variant>
#include <vector>

#include "common/types.hpp"

namespace snowkit {

/// A (key, value) version as stored in a server's Vals set (§5.2).
struct Version {
  WriteKey key;
  Value value{kInitialValue};
  friend bool operator==(const Version&, const Version&) = default;
};

/// A List entry's key plus its position, used when the coordinator ships
/// per-object key history to readers (Algorithm C).
struct ListedKey {
  Tag position{0};   ///< index of this entry in List (1-based; 0 = initial).
  WriteKey key;
  friend bool operator==(const ListedKey&, const ListedKey&) = default;
};

// --- Algorithms A / B / C (paper pseudocodes 4-7) -------------------------

/// update-coor: writer -> coordinator s* (Algorithms B and C), carrying
/// (kappa, b_1..b_k) as the written set {i : b_i = 1}.  It rides s*'s
/// write-val (WriteValReq::update_coor) and goes alone only when the WRITE
/// misses s*'s shard.
struct UpdateCoorReq {
  WriteKey key;
  std::vector<ObjectId> objs;  ///< the written objects W, ascending, non-empty.

  friend bool operator==(const UpdateCoorReq&, const UpdateCoorReq&) = default;
};

/// write-val: writer -> one server, carrying (kappa, v_i) for every object
/// of the WRITE that server hosts.  In the paper's model each object is its
/// own server and `writes` has one entry; sharded fleets pack a server's
/// objects into one frame.
struct WriteValReq {
  WriteKey key;
  std::vector<std::pair<ObjectId, Value>> writes;  ///< ascending obj, non-empty.
  /// Where the server sends its ack once the inserts are stored: s*'s
  /// primary, which lists the WRITE when every written server has reported
  /// (wire v10).  kInvalidNode: back to the sender (algo-a's writer).
  NodeId ack_to{kInvalidNode};
  /// Set on s*'s shard: this frame also carries the WRITE's update-coor,
  /// whose key is `key`; no separate update-coor is sent.
  std::optional<UpdateCoorReq> update_coor;

  friend bool operator==(const WriteValReq&, const WriteValReq&) = default;
};

/// ack for write-val: server -> the write-val's `ack_to` (s*), or the
/// writer when it names none, naming the objects it stored.
struct WriteValAck {
  WriteKey key;
  std::vector<ObjectId> objs;  ///< ascending, non-empty.

  friend bool operator==(const WriteValAck&, const WriteValAck&) = default;
};

/// info-reader: writer -> reader (Algorithm A; this is the C2C message).
/// `objs` is the paper's (b_1..b_k) written as the set {i : b_i = 1}, so the
/// message scales with the WRITE, not with k.
struct InfoReaderReq {
  WriteKey key;
  std::vector<ObjectId> objs;  ///< the written objects W, ascending, non-empty.
  friend bool operator==(const InfoReaderReq&, const InfoReaderReq&) = default;
};

/// (ack, t_w): reader -> writer.
struct InfoReaderAck {
  Tag tag{0};

  friend bool operator==(const InfoReaderAck&, const InfoReaderAck&) = default;
};

/// (ack, t_w): coordinator -> writer.  `watermark` is the coordinator's
/// current read watermark (see proto/version_store.hpp): the writer forwards
/// it to servers on its finalize fan-out, which is how watermark advancement
/// reaches the version stores without any extra message round.
struct UpdateCoorAck {
  Tag tag{0};
  Tag watermark{0};

  friend bool operator==(const UpdateCoorAck&, const UpdateCoorAck&) = default;
};

/// get-tag-arr: reader -> coordinator s*, naming the READ's objects I.
/// `mode_epoch` is the adaptive reader's adopted mode epoch, the base the
/// coordinator computes its mode delta against (0 for every other reader).
struct GetTagArrReq {
  std::vector<ObjectId> objs;  ///< I, ascending and de-duplicated.
  std::uint64_t mode_epoch{0};
  friend bool operator==(const GetTagArrReq&, const GetTagArrReq&) = default;
};

/// One object's slot of a tag array: kappa_i and, for Algorithm C, the
/// object's live List history (position, key) so the reader can run the
/// feasibility descent (see proto/algo_c).
struct TagArrEntry {
  ObjectId obj{0};
  WriteKey latest;                 ///< kappa_i: the newest key listed for obj.
  std::vector<ListedKey> history;  ///< algo-c only; empty otherwise.
  friend bool operator==(const TagArrEntry&, const TagArrEntry&) = default;
};

/// (t_r, (kappa_i)_{i in I}): coordinator -> reader.  Pseudocode 6's array
/// restricted to the objects the READ named — the reader never consults the
/// others, so the response scales with |I|, not with k.
struct GetTagArrResp {
  Tag tag{0};
  Tag watermark{0};  ///< coordinator read watermark; readers piggyback it on read-val-batch.
  std::vector<TagArrEntry> entries;  ///< one per requested object, ascending obj.
  friend bool operator==(const GetTagArrResp&, const GetTagArrResp&) = default;
};

// Tags 8-11 are reserved.  They carried the paper's per-object read-val and
// read-vals and their responses until snowkit-wire-v5 sent every READ round
// as one read-val-batch or read-vals-batch per server (tags 37-40 below).
// The numbering is frozen (docs/WIRE.md), so each tag keeps an empty
// placeholder alternative: the decoder rejects it with CodecError and the
// encoder never emits it.
template <std::size_t N>
struct ReservedPayload {
  friend bool operator==(const ReservedPayload&, const ReservedPayload&) = default;
};

/// finalize: writer -> one server, piggybacking the List position assigned
/// to a completed WRITE so the server can garbage-collect the versions it
/// supersedes on each of `objs`.  This is snowkit's bounded-version
/// extension for Algorithm C (DESIGN.md §5); it adds no round to any
/// transaction.
struct FinalizeReq {
  WriteKey key;
  Tag position{0};
  /// Coordinator read watermark as of this write's update-coor ack; the
  /// receiving stores advance their watermark to it and prune superseded
  /// finalized versions (proto/version_store.hpp states the safety rule).
  Tag watermark{0};
  std::vector<ObjectId> objs;  ///< this server's objects of the WRITE, ascending, non-empty.
  /// Set on the coordinator's shard: this frame also carries the
  /// finalize-coor notice for `position`, which is then not sent separately.
  bool coor{false};

  friend bool operator==(const FinalizeReq&, const FinalizeReq&) = default;
};

/// finalize-coor: writer -> coordinator s*, fire-and-forget notice that the
/// WRITE at List `position` has completed.  The coordinator's max finalized
/// position is the base of the read watermark: a position only counts into
/// the watermark once its write finished, so every in-flight or future READ
/// can still be served at or above it.  Sent only when the WRITE touches no
/// object on the coordinator's shard; otherwise that shard's finalize
/// carries it (FinalizeReq::coor).
struct FinalizeCoorReq {
  Tag position{0};

  friend bool operator==(const FinalizeCoorReq&, const FinalizeCoorReq&) = default;
};

/// read-done: reader -> coordinator (algorithms B/C and occ) or the read
/// servers (eiger), fire-and-forget notice that the sender's READ `txn`
/// completed.  Deregisters the read from watermark accounting.  The txn
/// rides in the payload (the envelope carries kInvalidTxn, 1 byte since
/// wire v8, so monitors don't count the notice as a READ round), and
/// deregistration is keyed by (sender, txn): txn ids are monotone per
/// client, so a reordered stale notice can never unpin a newer READ.
struct ReadDoneReq {
  TxnId txn{kInvalidTxn};

  friend bool operator==(const ReadDoneReq&, const ReadDoneReq&) = default;
};

// --- mini-Eiger (§6, Fig. 5) ----------------------------------------------

/// Write one object with Lamport-clock metadata.
struct EigerWriteReq {
  ObjectId obj{0};
  Value value{kInitialValue};
  std::uint64_t lamport{0};

  friend bool operator==(const EigerWriteReq&, const EigerWriteReq&) = default;
};

struct EigerWriteAck {
  ObjectId obj{0};
  std::uint64_t commit_ts{0};  ///< Lamport timestamp assigned by the server.
  std::uint64_t lamport{0};

  friend bool operator==(const EigerWriteAck&, const EigerWriteAck&) = default;
};

/// First-round read: server returns current value + logical validity interval.
struct EigerReadReq {
  ObjectId obj{0};
  std::uint64_t lamport{0};

  friend bool operator==(const EigerReadReq&, const EigerReadReq&) = default;
};

struct EigerReadResp {
  ObjectId obj{0};
  Value value{kInitialValue};
  std::uint64_t valid_from{0};   ///< commit timestamp of the returned version.
  std::uint64_t valid_until{0};  ///< server's Lamport clock when responding.
  std::uint64_t lamport{0};

  friend bool operator==(const EigerReadResp&, const EigerReadResp&) = default;
};

/// Second-round read at an explicit effective time (Eiger's slow path).
struct EigerReadAtReq {
  ObjectId obj{0};
  std::uint64_t at{0};
  std::uint64_t lamport{0};

  friend bool operator==(const EigerReadAtReq&, const EigerReadAtReq&) = default;
};

struct EigerReadAtResp {
  ObjectId obj{0};
  Value value{kInitialValue};
  std::uint64_t lamport{0};

  friend bool operator==(const EigerReadAtResp&, const EigerReadAtResp&) = default;
};

// --- blocking two-phase-locking comparator ---------------------------------

struct LockReq {
  ObjectId obj{0};
  bool exclusive{false};

  friend bool operator==(const LockReq&, const LockReq&) = default;
};

/// Grant; for shared locks carries the current value so a READ needs no
/// separate fetch round.
struct LockGrant {
  ObjectId obj{0};
  Value value{kInitialValue};

  friend bool operator==(const LockGrant&, const LockGrant&) = default;
};

/// Write the value and release the exclusive lock in one step.
struct WriteUnlockReq {
  ObjectId obj{0};
  Value value{kInitialValue};

  friend bool operator==(const WriteUnlockReq&, const WriteUnlockReq&) = default;
};

struct UnlockReq {
  ObjectId obj{0};

  friend bool operator==(const UnlockReq&, const UnlockReq&) = default;
};

struct UnlockAck {
  ObjectId obj{0};

  friend bool operator==(const UnlockAck&, const UnlockAck&) = default;
};

// --- simple (non-transactional) and naive one-round protocols --------------

struct SimpleReadReq {
  ObjectId obj{0};

  friend bool operator==(const SimpleReadReq&, const SimpleReadReq&) = default;
};

struct SimpleReadResp {
  ObjectId obj{0};
  Value value{kInitialValue};

  friend bool operator==(const SimpleReadResp&, const SimpleReadResp&) = default;
};

struct SimpleWriteReq {
  ObjectId obj{0};
  Value value{kInitialValue};

  friend bool operator==(const SimpleWriteReq&, const SimpleWriteReq&) = default;
};

struct SimpleWriteAck {
  ObjectId obj{0};

  friend bool operator==(const SimpleWriteAck&, const SimpleWriteAck&) = default;
};

// --- per-shard primary/backup replication (proto/replica.hpp) ---------------
//
// Replication envelopes all carry txn = kInvalidTxn (1 byte since wire v8),
// so the SNOW monitors never count replica traffic as transaction rounds.
// The one exception is a backup's redirect of a client request (a
// TakeoverNotice), which names that request's txn because it answers it.
// Tags 30-35; appended per the payload-tag freeze (docs/WIRE.md).

/// One entry of a shard's replicated operation log: the primary's mutations
/// to its VersionStores (and, on the coordinator shard, its CoorList),
/// exactly the stream a backup must apply to reach the same state.  Each
/// kind uses only the fields its comment names and leaves the rest at their
/// defaults: the codec (wire v8, WAL v3) writes just those fields, decodes
/// the others as defaults and refuses to encode a record that sets one.
struct ReplRecord {
  enum Kind : std::uint8_t {
    kInsert = 0,        ///< VersionStore::insert(key, value) on `obj`.
    kFinalize = 1,      ///< finalize(key, position) + advance_watermark(watermark) on `obj`.
    kListPush = 2,      ///< CoorList::push(key, objs) -> must yield `position`;
                        ///< `txn` and `writer` dedup retries.
    kCoorFinalize = 3,  ///< CoorList::finalize(position).
    kEpoch = 4,         ///< local-only WAL marker: `epoch` and `primary` (never shipped).
  };
  std::uint8_t kind{kInsert};
  ObjectId obj{0};
  WriteKey key;
  Value value{kInitialValue};
  Tag position{0};
  Tag watermark{0};
  std::vector<ObjectId> objs;   ///< kListPush: the update-coor write set.
  TxnId txn{kInvalidTxn};       ///< kListPush: the writer's txn (retry dedup).
  NodeId writer{kInvalidNode};  ///< kListPush: the writer node (retry dedup).
  std::uint64_t epoch{0};       ///< kEpoch: new epoch value.
  std::uint8_t primary{0};      ///< kEpoch: 1 iff the appender is primary.

  friend bool operator==(const ReplRecord&, const ReplRecord&) = default;
};

/// Primary -> backup: log records [first_seq, first_seq + records.size()).
/// Also the WAL batch format (snowkit-wal-v3) and the rejoin catch-up stream.
struct ReplAppendReq {
  std::uint64_t epoch{0};
  std::uint64_t first_seq{0};
  std::vector<ReplRecord> records;

  friend bool operator==(const ReplAppendReq&, const ReplAppendReq&) = default;
};

/// Backup -> primary: "my log now holds `acked_seq` records."  An ack with a
/// HIGHER epoch than the receiver's is the fencing signal that demotes a
/// stale primary.
struct ReplAppendAck {
  std::uint64_t epoch{0};
  std::uint64_t acked_seq{0};

  friend bool operator==(const ReplAppendAck&, const ReplAppendAck&) = default;
};

/// (Re)joining replica -> its peer: "adopt me as your backup; I have
/// `have_seq` records from epoch `epoch`."  `was_primary` forces a full
/// resync — a deposed primary's log tail may diverge from the new lineage.
struct ReplJoinReq {
  std::uint64_t epoch{0};
  std::uint64_t have_seq{0};
  std::uint8_t was_primary{0};

  friend bool operator==(const ReplJoinReq&, const ReplJoinReq&) = default;
};

/// Primary -> joiner: accepted at `epoch`; if `reset`, the joiner discards
/// its state and WAL first.  The catch-up stream rides IN the response
/// (`records` starting at `first_seq`) rather than as a separate append so
/// that message reordering can never deliver catch-up records against the
/// joiner's pre-reset state.
struct ReplJoinResp {
  std::uint64_t epoch{0};
  std::uint8_t reset{0};
  std::uint64_t first_seq{0};
  std::vector<ReplRecord> records;

  friend bool operator==(const ReplJoinResp&, const ReplJoinResp&) = default;
};

/// New primary -> every client node: shard `shard` is now served by `node`.
/// Clients keep a per-shard route table ordered by epoch and re-send
/// un-acked requests to the new primary.
struct TakeoverNotice {
  std::uint64_t shard{0};
  NodeId node{kInvalidNode};
  std::uint64_t epoch{0};

  friend bool operator==(const TakeoverNotice&, const TakeoverNotice&) = default;
};

/// Failure detector -> watcher (Runtime::watch_node): `node` is down.  In
/// SimRuntime this is exact (emitted by crash()); in NetRuntime it fires
/// after a peer link stays down past TransportOptions::peer_down_grace_ns,
/// so it can be a false positive — receivers must treat it as a hint that
/// self-heals (a live peer's next message restores liveness tracking).
struct NodeDownNotice {
  NodeId node{kInvalidNode};

  friend bool operator==(const NodeDownNotice&, const NodeDownNotice&) = default;
};

// --- adaptive meta-protocol (proto/adaptive) --------------------------------
//
// Tags 36-40; appended per the payload-tag freeze (docs/WIRE.md).  The
// adaptive layer serializes every READ exactly like Algorithm B (serve
// latest[obj] at the coordinator cut t_r); per-object modes only change the
// MESSAGE SHAPE of the value fetch, never the version selected, which is why
// a mode switch can ride an existing leg instead of needing a barrier.

/// Coordinator -> reader, the adaptive tag-array response (replaces
/// GetTagArrResp on the adaptive read path).  `entries` are the requested
/// objects' kappa_i, exactly as in GetTagArrResp (histories stay empty).
///
/// The rest brings the reader's per-object fetch-mode table (C-mode = prefetch
/// the version list in round 1) up to the coordinator's table at
/// `mode_epoch`, which bumps on every switch.  With `mode_base` > 0 it is a
/// DELTA against the table at epoch `mode_base` (the epoch the reader named
/// in its get-tag-arr): every object that flipped since then, listed in
/// `c_mode` or `b_mode` by its current mode.  With `mode_base` == 0 it is a
/// SNAPSHOT: `c_mode` is the whole C-mode set and replaces the reader's
/// table.  Readers adopt only when `mode_epoch` is >= their own epoch, so a
/// held or reordered response can never roll the table backwards — and an
/// in-flight read always completes under the plan it started with.  A
/// reader already at the coordinator's epoch gets the empty snapshot at
/// epoch 0 (wire v10: one byte), which it adopts only at epoch 0, where it
/// is the table it has.
struct AdaptTagArrResp {
  Tag tag{0};
  Tag watermark{0};
  std::vector<TagArrEntry> entries;  ///< one per requested object, ascending obj.
  std::uint64_t mode_epoch{0};       ///< the coordinator's switch count.
  std::uint64_t mode_base{0};        ///< delta base epoch; 0 = snapshot.
  std::vector<ObjectId> c_mode;      ///< ascending: objects now in C-mode.
  std::vector<ObjectId> b_mode;      ///< ascending: objects flipped back to B (deltas only).
  friend bool operator==(const AdaptTagArrResp&, const AdaptTagArrResp&) = default;
};

/// One (object, exact key) fetch within a read-val-batch.
struct BatchReadEntry {
  ObjectId obj{0};
  WriteKey key;
  friend bool operator==(const BatchReadEntry&, const BatchReadEntry&) = default;
};

/// read-val-batch: reader -> one server, the read-val (exact key kappa_i)
/// of every object of one READ round that server hosts, in a single frame:
/// algo-a's READ, algo-b's round 2, each occ-reads round and adaptive's
/// round 2.
struct ReadValBatchReq {
  /// The coordinator watermark the reader saw in its tag array (0 for
  /// algo-a), so stores on the read path advance (and prune) with zero
  /// extra messages.
  Tag watermark{0};
  std::vector<BatchReadEntry> entries;  ///< ascending obj, non-empty.
  friend bool operator==(const ReadValBatchReq&, const ReadValBatchReq&) = default;
};

/// One resolved entry of a ReadValBatchReq: the value stored under `key`.
/// `found` is false when the named key is not (or no longer) in Vals —
/// reachable by speculative readers (occ) whose guessed key was superseded
/// and garbage-collected, after a failover, and for a key no correct reader
/// names; protocols that request watermark-protected keys from a
/// failure-free fleet always get found == true.
struct BatchReadResult {
  ObjectId obj{0};
  WriteKey key;
  Value value{kInitialValue};
  bool found{true};
  friend bool operator==(const BatchReadResult&, const BatchReadResult&) = default;
};

/// Server -> reader: the batched one-version responses.
struct ReadValBatchResp {
  std::vector<BatchReadResult> entries;
  friend bool operator==(const ReadValBatchResp&, const ReadValBatchResp&) = default;
};

/// One object of a read-vals-batch whose version the reader already holds
/// (adaptive, wire v10): the server answers it with its live version list
/// from the floor (`list`, C-mode) or with one version, latest[obj] on the
/// coordinator's shard and the version it inserted last elsewhere (B-mode),
/// and leaves the held version out, the whole object when nothing is left.
struct HeldVersion {
  ObjectId obj{0};
  WriteKey key;  ///< the held version's; kInitialKey for a reader with none cached.
  bool list{false};
  friend bool operator==(const HeldVersion&, const HeldVersion&) = default;
};

/// read-vals-batch: reader -> one server, the read-vals (live version list)
/// of every object of one READ round that server hosts, in a single frame:
/// algo-b's round 1, algo-c's READ and adaptive's round 1.
struct ReadValsBatchReq {
  /// The reader's read floor (wire v10): a List position at or below which
  /// the READ needs no version older than the newest one listed.  The server
  /// leaves the finalized versions older than that out of this response
  /// only (VersionStore::chain_from); it never prunes a store for it.
  /// Algo-c's and adaptive's readers send the tag of their last completed
  /// READ, or 0; algo-b's sends 0.
  Tag floor{0};
  /// Ascending; with `held`, non-empty, and no object in both.
  std::vector<ObjectId> objs;
  /// Set on the coordinator's shard (the `coor` bit): this frame also
  /// carries the round's get-tag-arr, whose I names the whole READ (not
  /// just this server's objects, and never empty); no separate get-tag-arr
  /// is sent.
  std::optional<GetTagArrReq> tag_arr;
  /// The objects whose version the reader holds, ascending (adaptive).
  std::vector<HeldVersion> held;
  friend bool operator==(const ReadValsBatchReq&, const ReadValsBatchReq&) = default;
};

/// One object's version list within a read-vals-batch response.
struct ObjectVersions {
  ObjectId obj{0};
  std::vector<Version> versions;
  friend bool operator==(const ObjectVersions&, const ObjectVersions&) = default;
};

/// The coordinator's answer to a get-tag-arr: Algorithm C's tag array, or
/// adaptive's with its mode delta.
using TagArrReply = std::variant<GetTagArrResp, AdaptTagArrResp>;

/// Server -> reader: the batched multi-version responses.
struct ReadValsBatchResp {
  std::vector<ObjectVersions> entries;
  /// The coordinator's answer to a folded get-tag-arr (ReadValsBatchReq::
  /// tag_arr); empty on every other server's response.
  std::optional<TagArrReply> tag_arr;
  friend bool operator==(const ReadValsBatchResp&, const ReadValsBatchResp&) = default;
};

using Payload = std::variant<
    WriteValReq, WriteValAck, InfoReaderReq, InfoReaderAck, UpdateCoorReq,
    UpdateCoorAck, GetTagArrReq, GetTagArrResp, ReservedPayload<8>,
    ReservedPayload<9>, ReservedPayload<10>, ReservedPayload<11>, FinalizeReq,
    EigerWriteReq, EigerWriteAck,
    EigerReadReq, EigerReadResp, EigerReadAtReq, EigerReadAtResp, LockReq,
    LockGrant, WriteUnlockReq, UnlockReq, UnlockAck, SimpleReadReq,
    SimpleReadResp, SimpleWriteReq, SimpleWriteAck, FinalizeCoorReq,
    ReadDoneReq, ReplAppendReq, ReplAppendAck, ReplJoinReq, ReplJoinResp,
    TakeoverNotice, NodeDownNotice, AdaptTagArrResp, ReadValBatchReq,
    ReadValBatchResp, ReadValsBatchReq, ReadValsBatchResp>;

}  // namespace snowkit

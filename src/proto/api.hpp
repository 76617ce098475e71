// Public client API shared by all protocols.
//
// Each protocol (proto/algo_a, algo_b, algo_c, eiger, blocking, simple,
// naive, occ) assembles a ProtocolSystem on top of a SystemConfig: a server
// fleet (by default one server per object, matching the paper's model, but
// optionally fewer servers with objects sharded across them via an
// ObjectPlacement policy), some read-clients and some write-clients.
//
// The read- and write-clients are nodes on the ReadClient / WriteClient
// bases below, which own the transaction state machine every protocol
// repeats; a protocol supplies only its sends, its reply handling and its
// cut choice.  Drivers submit transactions through the unified
// TxnClient::submit — a TxnRequest carries either a read-set or a write-set
// — which queues onto those nodes; scripted schedules that need per-node
// control call invoke_read / invoke_write on a node directly.  Every path
// completes the same way: one TxnResult (is_read set, the values for a
// READ) handed to a TxnCallback on the client's executor, after the
// transaction is recorded in the shared HistoryRecorder.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "history/history.hpp"
#include "runtime/runtime.hpp"

namespace snowkit {

// --- system configuration & object placement --------------------------------

/// How the k objects are distributed over the server fleet.
enum class PlacementKind : std::uint8_t {
  kHash,   ///< object -> server via a fixed 64-bit mix (spreads hot ranges).
  kRange,  ///< contiguous object ranges per server (locality-friendly).
};

/// Object count, clients and placement for building a protocol instance.
/// The first three fields are ordered so `{k, readers, writers}` aggregate
/// initialization reads naturally.
struct SystemConfig {
  std::size_t num_objects{2};
  std::size_t num_readers{1};
  std::size_t num_writers{1};
  /// Server-fleet size.  0 (default) means one server per object — the
  /// paper's model.  Any other value shards the objects over that many
  /// servers according to `placement`.
  std::size_t num_servers{0};
  PlacementKind placement{PlacementKind::kHash};

  std::size_t server_count() const { return num_servers == 0 ? num_objects : num_servers; }

  /// The node-id layout every protocol build follows: servers at [0, s),
  /// then the readers, then the writers, then — with replicas 2 — one backup
  /// per shard.  This is shard `shard`'s backup node.
  NodeId backup_node(std::size_t shard) const {
    return static_cast<NodeId>(server_count() + num_readers + num_writers + shard);
  }

  /// Throws std::invalid_argument with a precise message on nonsense configs
  /// (no objects, no clients, no servers) instead of letting the error
  /// surface as downstream UB in OpStream / coordinator indexing.
  void validate() const;
};

/// The resolved object->server map of a SystemConfig.  Servers always occupy
/// node ids [0, num_servers) in registration order, so the map doubles as an
/// object->NodeId map.
class Placement {
 public:
  Placement() = default;
  explicit Placement(const SystemConfig& cfg)
      : num_objects_(cfg.num_objects), num_servers_(cfg.server_count()), kind_(cfg.placement) {}

  std::size_t num_objects() const { return num_objects_; }
  std::size_t num_servers() const { return num_servers_; }
  PlacementKind kind() const { return kind_; }

  /// Which server shard owns `obj`.  With one server per object (the paper
  /// model, num_servers == num_objects) this is the identity map — object i
  /// lives on server i — which scripted adversary schedules rely on.
  std::size_t shard_of(ObjectId obj) const {
    if (num_servers_ == num_objects_) return static_cast<std::size_t>(obj);
    if (kind_ == PlacementKind::kRange) {
      return static_cast<std::size_t>(obj) * num_servers_ / num_objects_;
    }
    // SplitMix64 is deterministic across platforms and runs.
    return static_cast<std::size_t>(SplitMix64(obj).next() % num_servers_);
  }

  /// The node hosting `obj` (servers are nodes [0, num_servers)).
  NodeId server_node(ObjectId obj) const { return static_cast<NodeId>(shard_of(obj)); }

  /// All objects placed on server shard `s` (ascending).
  std::vector<ObjectId> objects_on(std::size_t shard) const;

 private:
  std::size_t num_objects_{0};
  std::size_t num_servers_{0};
  PlacementKind kind_{PlacementKind::kHash};
};

// --- transaction requests & results ------------------------------------------

/// A transaction request: exactly one of `reads` / `writes` is non-empty
/// (the paper's model has READ transactions and WRITE transactions, never
/// mixed read-write transactions).
struct TxnRequest {
  std::vector<ObjectId> reads;
  std::vector<std::pair<ObjectId, Value>> writes;

  bool is_read() const { return !reads.empty(); }
};

/// Builds a READ-transaction request over `objs`.
TxnRequest read_txn(std::vector<ObjectId> objs);
/// Builds a WRITE-transaction request over `writes`.
TxnRequest write_txn(std::vector<std::pair<ObjectId, Value>> writes);

/// A completed transaction, READ or WRITE, as every completion path delivers
/// it: TxnClient::submit, ReadClient::read, WriteClient::write and
/// invoke_read / invoke_write.
struct TxnResult {
  TxnId txn{kInvalidTxn};
  bool is_read{false};
  /// READs: the (object, value) pairs returned.  WRITEs: empty.
  std::vector<std::pair<ObjectId, Value>> values;
};

using TxnCallback = std::function<void(const TxnResult&)>;

/// Unified transaction client: submit READ or WRITE transactions and get the
/// completion on the owning node's executor.  Safe to call from any thread;
/// requests beyond the underlying protocol client's one-outstanding-txn
/// budget are queued and drained in FIFO order, which is what open-loop
/// drivers need.
class TxnClient {
 public:
  virtual ~TxnClient() = default;

  virtual void submit(TxnRequest req, TxnCallback cb) = 0;
};

// --- client nodes -------------------------------------------------------------

/// The attempts a READ may make before its reader gives up.  A correct fleet
/// converges in a handful (one per failover or GC race); exhausting the
/// budget means the List names a version no shard holds — e.g. the
/// broken-lostack stub losing an acknowledged insert.  The READ then stays
/// unanswered, which the oracle convicts as a liveness violation, instead of
/// retrying forever or aborting the client.
inline constexpr int kMaxReadAttempts = 100;

/// How long a reader keeps its last READ registered at the coordinator
/// before it sends the read-done.  A READ that begins within it re-registers
/// there, which replaces the old floor at no frame (CoorList::register_reader);
/// one that does not gets the read-done, so an idle reader pins the
/// watermark for at most this long.
inline constexpr TimeNs kReadDoneLinger = 10'000'000;  // 10 ms

/// Each client's view of which node serves each shard, ordered by epoch so
/// reordered TakeoverNotices can never re-route backwards.  Per-client by
/// value (never shared): every client node updates its own copy from the
/// notices it receives on its own executor.
class ShardRoutes {
 public:
  explicit ShardRoutes(std::size_t num_shards) {
    entries_.resize(num_shards);
    for (std::size_t s = 0; s < num_shards; ++s) entries_[s].node = static_cast<NodeId>(s);
  }

  NodeId node_of(std::size_t shard) const { return entries_.at(shard).node; }

  /// Applies a takeover if its epoch is newer; returns whether it was.
  bool update(std::size_t shard, NodeId node, std::uint64_t epoch) {
    if (shard >= entries_.size()) return false;
    Entry& e = entries_[shard];
    if (epoch <= e.epoch) return false;
    e.node = node;
    e.epoch = epoch;
    return true;
  }

 private:
  struct Entry {
    NodeId node{kInvalidNode};
    std::uint64_t epoch{0};
  };
  std::vector<Entry> entries_;
};

/// What the read and write client bases share: one transaction in flight at
/// a time (the paper's well-formedness), the shard routes, and the one
/// on_message every protocol's client runs.  That on_message routes a
/// TakeoverNotice to the shard routes (only on a replicated fleet, and calls
/// on_takeover only when the epoch advances), offers every message to
/// on_peer, and hands a reply to on_reply only when it names the
/// transaction in flight.  Anything else is dropped with a warning, so no
/// reply a peer sends — foreign, out of turn or naming another txn — can
/// abort a client.  TxnIds grow, so a reply naming a txn older than the
/// client's newest is a straggler of its own past (a superseded attempt's,
/// or a prefetch an adaptive READ finished without, which is routine) and is
/// dropped at debug level.  A read-vals-batch-resp that carries the
/// coordinator's folded tag array reaches on_reply as two replies: the tag
/// array first, then the batch.  Invariant checks stay on in-turn replies: a
/// reply forged with the matching txn can still trip them.
class ClientNode : public Node {
 public:
  NodeId node_id() const { return id(); }
  /// The system's object count k (ids are [0, k)).
  std::size_t num_objects() const { return place_.num_objects(); }

  void on_message(NodeId from, const Message& m) final;

 protected:
  ClientNode(HistoryRecorder& rec, const Placement& place, bool replicated, const char* kind);

  /// A reply naming the transaction in flight; false if it is none of this
  /// protocol's replies.  A reply the protocol recognises but ignores (a
  /// duplicate, a superseded attempt's) returns true.
  virtual bool on_reply(NodeId from, const Message& m) = 0;
  /// Any message, before the txn filter, for traffic not tied to the
  /// transaction in flight (algo-a's info-reader); true if consumed.
  virtual bool on_peer(NodeId /*from*/, const Message& /*m*/) { return false; }
  /// Shard `tn.shard` now routes to `tn.node` at a newer epoch.
  virtual void on_takeover(const TakeoverNotice& /*tn*/) {}

  bool in_flight() const { return txn_ != kInvalidTxn; }
  /// Shards have backups, so TakeoverNotices re-route them.
  bool replicated() const { return replicated_; }
  /// The transaction in flight (kInvalidTxn when idle).
  TxnId txn() const { return txn_; }
  const Placement& place() const { return place_; }
  HistoryRecorder& rec() const { return rec_; }
  /// The node serving shard `shard` (its primary's successor after takeovers).
  NodeId route(std::size_t shard) const { return routes_.node_of(shard); }
  /// The node serving `obj`'s shard.
  NodeId server_of(ObjectId obj) const { return route(place_.shard_of(obj)); }
  /// Sends each shard's payload of `by_shard` to the node serving that
  /// shard, for the transaction in flight; returns how many it sent.
  template <typename P>
  std::size_t send_by_shard(std::map<std::size_t, P> by_shard) {
    for (auto& [shard, p] : by_shard) send(route(shard), Message{txn_, std::move(p)});
    return by_shard.size();
  }

  void begin(TxnId txn) { txn_ = newest_txn_ = txn; }
  void end() { txn_ = kInvalidTxn; }

 private:
  /// Hands `m` to on_reply if it names the transaction in flight.
  void deliver(NodeId from, const Message& m);
  void drop(LogLevel level, NodeId from, const Message& m, const char* why) const;

  HistoryRecorder& rec_;
  Placement place_;
  bool replicated_;
  const char* kind_;  ///< "READ" or "WRITE", for the drop warnings.
  ShardRoutes routes_;
  TxnId txn_{kInvalidTxn};
  TxnId newest_txn_{0};  ///< the last transaction begun (TxnIds start at 1).
};

/// A read-client node: executes only READ transactions (paper §2).  Scripted
/// per-node schedules (src/theory, the fig1a bench, tests) drive a reader
/// directly through invoke_read; TxnClient's hub queues onto the same nodes.
///
/// The base owns the READ's state machine; a protocol's reader supplies
/// attempt() (an attempt's round-1 sends), on_reply() (reply handling and
/// the cut choice) and, as it needs them, on_takeover() and on_peer(), and
/// ends the READ with finish().
class ReadClient : public ClientNode {
 public:
  /// Invokes R(o_{i1}..o_{iq}); `cb` gets a TxnResult with is_read set and
  /// the values read.  Must be called on the client's executor (use
  /// invoke_read below from driver code) with no READ in flight.
  void read(std::vector<ObjectId> objs, TxnCallback cb);

 protected:
  /// `replicated`: shards have backups, so TakeoverNotices re-route them.
  /// `may_retry`: a READ may legally re-run its attempt (a failover or a GC
  /// race can defeat one); otherwise retry() is a checked failure.
  ReadClient(HistoryRecorder& rec, const Placement& place, bool replicated = false,
             bool may_retry = false);

  /// Sends one attempt's round 1 for the READ in flight, resetting the
  /// attempt's state.  Runs at invocation (attempts() == 1, where per-READ
  /// state resets too) and on every retry().
  virtual void attempt() = 0;
  /// Puts the READ's objects in the order it begins with; blocking-2pl
  /// sorts them (its lock order).  The identity by default.
  virtual void order(std::vector<ObjectId>& /*objs*/) {}

  const std::vector<ObjectId>& objs() const { return objs_; }
  /// This READ's attempts so far, counting the current one.
  int attempts() const { return attempts_; }

  /// Sends one round that asks the coordinator shard `coor_shard` for the
  /// tag array `gt` and each shard of `batches` for its version lists.
  /// When `batches` holds the coordinator's shard, its batch carries `gt`
  /// and no separate get-tag-arr goes out: one frame per server, the
  /// coordinator included.  Returns how many batches it sent.
  std::size_t send_tag_arr_round(std::size_t coor_shard, GetTagArrReq gt,
                                 std::map<std::size_t, ReadValsBatchReq> batches);

  /// Notes that the READ in flight registered at the coordinator shard
  /// `coor_shard` and is completing: its floor is released by the next
  /// READ's registration, or by a read-done sent kReadDoneLinger after the
  /// last completion if no READ begins by then.  Call it before finish().
  void release_registration(std::size_t coor_shard);

  /// Re-runs attempt() for the READ in flight, within kMaxReadAttempts.
  /// `why` says what defeated the attempt, for the check when no retry is
  /// legal.
  void retry(const char* why);

  /// Completes the READ: records it, resets the state and runs the callback
  /// with the READ's TxnResult.
  void finish(std::vector<std::pair<ObjectId, Value>> values, Tag tag, int rounds,
              int max_versions);

 private:
  /// Sends the read-done for the last READ's registration once it has
  /// lingered kReadDoneLinger; re-arms if a later READ completed since.
  void linger_expired();

  /// The last completed READ's coordinator registration, until a READ
  /// begins (its registration replaces this one) or the read-done goes out.
  struct Registration {
    std::size_t coor_shard;
    TxnId txn;
    TimeNs done_at;
  };

  bool may_retry_;
  std::vector<ObjectId> objs_;
  int attempts_{0};
  TxnCallback cb_;
  std::optional<Registration> registered_;
  bool linger_armed_{false};  ///< a linger_expired() timer is pending.
};

/// A write-client node: executes only WRITE transactions.  The base owns
/// the WRITE's state machine; a protocol's writer supplies start() (the
/// first step's sends) and on_reply(), and ends the WRITE with finish().
class WriteClient : public ClientNode {
 public:
  /// Invokes W(...); `cb` gets a TxnResult with is_read clear and no
  /// values.  Must be called on the client's executor (use invoke_write)
  /// with no WRITE in flight.
  void write(std::vector<std::pair<ObjectId, Value>> writes, TxnCallback cb);

 protected:
  explicit WriteClient(HistoryRecorder& rec, const Placement& place, bool replicated = false);

  /// Sends the WRITE's first step.
  virtual void start() = 0;
  /// Puts the WRITE's pairs in the order it begins with; blocking-2pl sorts
  /// them (its lock order).  The identity by default.
  virtual void order(std::vector<std::pair<ObjectId, Value>>& /*writes*/) {}

  const std::vector<std::pair<ObjectId, Value>>& writes() const { return writes_; }

  /// Completes the WRITE: records it, resets the state and runs the callback
  /// with the WRITE's TxnResult.
  void finish(Tag tag, int rounds);

 private:
  std::vector<std::pair<ObjectId, Value>> writes_;
  TxnCallback cb_;
};

/// Registers `n` client nodes built by `make()` with `rt`, in order, and
/// returns them.
template <typename Client, typename Make>
std::vector<Client*> add_clients(Runtime& rt, std::size_t n, Make make) {
  std::vector<Client*> out;
  for (std::size_t i = 0; i < n; ++i) {
    auto node = make();
    out.push_back(node.get());
    rt.add_node(std::move(node));
  }
  return out;
}

// --- assembled systems --------------------------------------------------------

/// An assembled protocol instance on some runtime: its name, config and
/// placement (so protocols share one object->server map), its reader and
/// writer nodes, and the unified TxnClient view over them.
class ProtocolSystem {
 public:
  ProtocolSystem(std::string name, const SystemConfig& cfg, Runtime& rt,
                 std::vector<ReadClient*> readers, std::vector<WriteClient*> writers);
  virtual ~ProtocolSystem();

  ProtocolSystem(const ProtocolSystem&) = delete;
  ProtocolSystem& operator=(const ProtocolSystem&) = delete;

  const std::string& name() const { return name_; }
  const SystemConfig& config() const { return cfg_; }
  const Placement& placement() const { return placement_; }

  std::size_t num_objects() const { return cfg_.num_objects; }
  std::size_t num_servers() const { return placement_.num_servers(); }
  NodeId server_node(ObjectId obj) const { return placement_.server_node(obj); }

  std::size_t num_readers() const { return readers_.size(); }
  std::size_t num_writers() const { return writers_.size(); }
  ReadClient& reader(std::size_t i) { return *readers_.at(i); }
  WriteClient& writer(std::size_t i) { return *writers_.at(i); }

  /// Number of unified clients: max(readers, writers).  Client i routes
  /// READs through reader (i mod R) and WRITEs through writer (i mod W),
  /// queuing per underlying protocol client so concurrent submissions never
  /// violate the one-outstanding-transaction well-formedness rule.
  std::size_t num_clients() const;
  TxnClient& client(std::size_t i);

  Runtime& runtime() const { return rt_; }

 private:
  struct ClientHub;

  std::string name_;
  SystemConfig cfg_;
  Placement placement_;
  Runtime& rt_;
  std::vector<ReadClient*> readers_;
  std::vector<WriteClient*> writers_;
  std::mutex hub_mu_;
  std::unique_ptr<ClientHub> hub_;
};

/// The client-boundary check every READ and WRITE passes before anything is
/// posted: throws std::invalid_argument when the transaction names no
/// object, names one twice or names an id >= k.  An empty transaction has
/// nothing to complete on, a repeated object would wedge a READ (its
/// completion counts distinct objects) and has no encoding in a WRITE's
/// per-server write-val.
void check_txn_objects(const TxnRequest& req, std::size_t num_objects);

/// Posts a read invocation onto the client's executor, after
/// check_txn_objects.
void invoke_read(Runtime& rt, ReadClient& client, std::vector<ObjectId> objs, TxnCallback cb);

/// Posts a write invocation onto the client's executor, after
/// check_txn_objects.
void invoke_write(Runtime& rt, WriteClient& client,
                  std::vector<std::pair<ObjectId, Value>> writes, TxnCallback cb);

/// All object ids [0, k).
std::vector<ObjectId> all_objects(std::size_t k);

/// Builds the (object -> value) list writing `base + i` to each object; used
/// by tests and demos to give each WRITE a distinguishable payload.
std::vector<std::pair<ObjectId, Value>> write_all(std::size_t k, Value base);

}  // namespace snowkit

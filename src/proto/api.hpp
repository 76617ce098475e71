// Public client API shared by all protocols.
//
// Each protocol (proto/algo_a, algo_b, algo_c, eiger, blocking, simple,
// naive, occ) assembles a ProtocolSystem on top of a SystemConfig: a server
// fleet (by default one server per object, matching the paper's model, but
// optionally fewer servers with objects sharded across them via an
// ObjectPlacement policy), some read-clients and some write-clients.
//
// Transactions are invoked through the unified TxnClient::submit API — a
// TxnRequest carries either a read-set or a write-set — or through the
// legacy ReadClientApi / WriteClientApi, which remain as thin shims during
// migration.  Completion is delivered via callback on the client's executor
// and recorded in the shared HistoryRecorder.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

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

/// Topology + placement for building a protocol instance.  The first three
/// fields keep the seed Topology's order so `{k, readers, writers}` aggregate
/// initialization continues to work.
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

/// Deprecated name kept for migration; prefer SystemConfig.
using Topology = SystemConfig;

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

struct ReadResult {
  TxnId txn{kInvalidTxn};
  std::vector<std::pair<ObjectId, Value>> values;
};

struct WriteResult {
  TxnId txn{kInvalidTxn};
};

using ReadCallback = std::function<void(const ReadResult&)>;
using WriteCallback = std::function<void(const WriteResult&)>;

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

// --- legacy split client interfaces (deprecated shims) -----------------------

/// A read-client: executes only READ transactions (paper §2).
/// Deprecated: prefer TxnClient via ProtocolSystem::client().
class ReadClientApi {
 public:
  virtual ~ReadClientApi() = default;

  /// Invokes R(o_{i1}..o_{iq}).  Must be called on the client's executor
  /// (use invoke_read below from driver code).  One outstanding transaction
  /// per client (well-formedness).
  virtual void read(std::vector<ObjectId> objs, ReadCallback cb) = 0;

  virtual NodeId node_id() const = 0;
  /// The system's object count k (ids are [0, k)).
  virtual std::size_t num_objects() const = 0;
};

/// A write-client: executes only WRITE transactions.
/// Deprecated: prefer TxnClient via ProtocolSystem::client().
class WriteClientApi {
 public:
  virtual ~WriteClientApi() = default;

  virtual void write(std::vector<std::pair<ObjectId, Value>> writes, WriteCallback cb) = 0;

  virtual NodeId node_id() const = 0;
  /// The system's object count k (ids are [0, k)).
  virtual std::size_t num_objects() const = 0;
};

// --- assembled systems --------------------------------------------------------

/// An assembled protocol instance on some runtime.  The base class owns the
/// name, config and placement (so protocols share one object->server map) and
/// provides the unified TxnClient view; concrete systems only expose their
/// reader/writer node sets.
class ProtocolSystem {
 public:
  ProtocolSystem(std::string name, const SystemConfig& cfg, Runtime& rt);
  virtual ~ProtocolSystem();

  ProtocolSystem(const ProtocolSystem&) = delete;
  ProtocolSystem& operator=(const ProtocolSystem&) = delete;

  const std::string& name() const { return name_; }
  const SystemConfig& config() const { return cfg_; }
  const Placement& placement() const { return placement_; }

  std::size_t num_objects() const { return cfg_.num_objects; }
  std::size_t num_servers() const { return placement_.num_servers(); }
  NodeId server_node(ObjectId obj) const { return placement_.server_node(obj); }

  virtual std::size_t num_readers() const = 0;
  virtual std::size_t num_writers() const = 0;
  virtual ReadClientApi& reader(std::size_t i) = 0;
  virtual WriteClientApi& writer(std::size_t i) = 0;

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
  std::mutex hub_mu_;
  std::unique_ptr<ClientHub> hub_;
};

/// The client-boundary check every READ and WRITE passes before anything is
/// posted: throws std::invalid_argument when the transaction names an object
/// twice or an id >= k.  A repeated object would wedge a READ (its
/// completion counts distinct objects) and has no encoding in a WRITE's
/// per-server write-val.
void check_txn_objects(const TxnRequest& req, std::size_t num_objects);

/// Posts a read invocation onto the client's executor, after
/// check_txn_objects.
void invoke_read(Runtime& rt, ReadClientApi& client, std::vector<ObjectId> objs, ReadCallback cb);

/// Posts a write invocation onto the client's executor, after
/// check_txn_objects.
void invoke_write(Runtime& rt, WriteClientApi& client,
                  std::vector<std::pair<ObjectId, Value>> writes, WriteCallback cb);

/// All object ids [0, k).
std::vector<ObjectId> all_objects(std::size_t k);

/// Builds the (object -> value) list writing `base + i` to each object; used
/// by tests and demos to give each WRITE a distinguishable payload.
std::vector<std::pair<ObjectId, Value>> write_all(std::size_t k, Value base);

}  // namespace snowkit

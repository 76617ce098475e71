#include "proto/algo_b/algo_b.hpp"

#include <map>
#include <optional>
#include <stdexcept>
#include <utility>

#include "common/assert.hpp"
#include "core/registry.hpp"
#include "proto/coor_writer.hpp"
#include "proto/replica.hpp"
#include "proto/version_store.hpp"

namespace snowkit {
namespace {

/// Server for Algorithm B.  Every server stores per-object Vals; the
/// coordinator s* additionally maintains List (as a CoorList with
/// incremental per-object indexes) and answers get-tag-arr / update-coor.
///
/// With GC on (the default), writers fan out finalize notices carrying the
/// coordinator's read watermark and readers piggyback it on read-val, so
/// Vals retains only the per-object anchor plus versions above the watermark
/// — reads still carry exactly one version, and a requested key can never be
/// pruned while its READ is registered (see proto/version_store.hpp).
///
/// With `replicas 2` the server embeds a Replicator (proto/replica.hpp):
/// state mutations go through the replicated log, write acks wait for the
/// backup, and the whole node survives crash/restart through its WAL.  Reads
/// are still served immediately — replication never blocks them.
class ServerB final : public Node {
 public:
  ServerB(std::size_t k, bool is_coordinator, bool gc,
          std::optional<Replicator::Config> repl = std::nullopt,
          std::unique_ptr<WalStorage> wal = nullptr)
      : k_(k), is_coordinator_(is_coordinator), gc_(gc) {
    if (is_coordinator_) list_.emplace(k_);
    if (repl) {
      repl_ = std::make_unique<Replicator>(
          std::move(*repl), std::move(wal),
          [this](NodeId to, Message m) { send(to, std::move(m)); },
          [this](NodeId from, const Message& m) { on_message(from, m); }, &stores_, &list_);
    }
  }

  void on_start() override {
    if (repl_ != nullptr) {
      rt().watch_node(id(), repl_->peer_node());
      repl_->boot();
    }
  }

  bool supports_crash() const override { return repl_ != nullptr; }

  void on_crash() override {
    stores_.clear();
    if (is_coordinator_) list_.emplace(k_);
    repl_->on_crash();
  }

  void on_message(NodeId from, const Message& m) override {
    if (repl_ != nullptr) {
      if (repl_->consume(from, m)) return;
      if (!repl_->is_primary()) {
        // Stale route: park or redirect, never drop (see defer_client).
        repl_->defer_client(from, m);
        return;
      }
    }
    if (misrouted(from, m, is_coordinator_)) return;
    if (handle_write_path(rt(), id(), from, m, gc_, stores_, list_, repl_.get())) return;
    if (const auto* rv = std::get_if<ReadValReq>(&m.payload)) {
      VersionStore& vals = stores_[rv->obj];
      if (gc_) vals.advance_watermark(rv->watermark);
      if (repl_ != nullptr) {
        // Failover can GC past a key an old lineage promised: answer
        // found=false and the reader restarts from the coordinator.
        const auto v = vals.try_get(rv->key);
        send(from, Message{m.txn, ReadValResp{rv->obj, rv->key,
                                              v.value_or(kInitialValue), v.has_value()}});
      } else {
        send(from, Message{m.txn, ReadValResp{rv->obj, rv->key, vals.get(rv->key)}});
      }
      return;
    }
    if (const auto* uc = std::get_if<UpdateCoorReq>(&m.payload)) {
      handle_update_coor(rt(), id(), from, m.txn, *uc, list_, repl_.get());
      return;
    }
    if (const auto* gt = std::get_if<GetTagArrReq>(&m.payload)) {
      list_->register_reader(from, m.txn);
      send(from, Message{m.txn, list_->tag_arr(gt->objs, /*with_history=*/false)});
      return;
    }
    SNOW_UNREACHABLE("algo-b server got unexpected payload");
  }

 private:
  std::size_t k_;
  bool is_coordinator_;
  bool gc_;
  std::map<ObjectId, VersionStore> stores_;
  std::optional<CoorList> list_;  ///< coordinator only.
  std::unique_ptr<Replicator> repl_;  ///< replicas=2 only.
};

class ReaderB final : public Node, public ReadClientApi {
 public:
  ReaderB(HistoryRecorder& rec, const Placement& place, std::size_t coor_shard, bool replicated)
      : rec_(rec), place_(place), coor_shard_(coor_shard), replicated_(replicated),
        routes_(place.num_servers()) {}

  void read(std::vector<ObjectId> objs, ReadCallback cb) override {
    SNOW_CHECK_MSG(!pending_, "reader " << id() << " already has a READ in flight");
    SNOW_CHECK(!objs.empty());
    const TxnId txn = rec_.begin_read(id(), objs);
    pending_.emplace();
    pending_->txn = txn;
    pending_->objs = objs;
    pending_->cb = std::move(cb);
    send(routes_.node_of(coor_shard_), Message{txn, tag_arr_req(pending_->objs)});
  }

  NodeId node_id() const override { return id(); }
  std::size_t num_objects() const override { return place_.num_objects(); }

  void on_message(NodeId, const Message& m) override {
    if (const auto* tn = std::get_if<TakeoverNotice>(&m.payload)) {
      on_takeover(*tn);
      return;
    }
    if (const auto* ta = std::get_if<GetTagArrResp>(&m.payload)) {
      if (replicated_) {
        // Tolerate stale and duplicate responses (failover retries): only
        // the first tag array per attempt drives this round.
        if (!pending_ || pending_->txn != m.txn || !pending_->want.empty()) return;
      } else {
        SNOW_CHECK(pending_ && pending_->txn == m.txn);
      }
      pending_->tag = ta->tag;
      pending_->watermark = ta->watermark;
      for (ObjectId obj : pending_->objs) {
        const WriteKey& key = tag_entry(ta->entries, obj).latest;
        pending_->want[obj] = key;
        send(routes_.node_of(place_.shard_of(obj)),
             Message{m.txn, ReadValReq{obj, key, ta->watermark}});
      }
      return;
    }
    if (const auto* rr = std::get_if<ReadValResp>(&m.payload)) {
      if (replicated_) {
        if (!pending_ || pending_->txn != m.txn) return;
        const auto it = pending_->want.find(rr->obj);
        if (it == pending_->want.end() || !(it->second == rr->key)) return;  // stale attempt
        if (!rr->found) {
          // GC raced the failover past our key: restart from the coordinator.
          restart_round();
          return;
        }
      } else {
        SNOW_CHECK(pending_ && pending_->txn == m.txn);
        SNOW_CHECK_MSG(rr->found, "algo-b requested a watermark-protected key; it must exist");
      }
      pending_->got[rr->obj] = rr->value;
      if (pending_->got.size() == pending_->objs.size()) complete();
      return;
    }
    SNOW_UNREACHABLE("algo-b reader got unexpected payload");
  }

 private:
  struct Pending {
    TxnId txn{kInvalidTxn};
    std::vector<ObjectId> objs;
    std::map<ObjectId, WriteKey> want;  ///< this attempt's requested keys.
    std::map<ObjectId, Value> got;
    Tag tag{0};
    Tag watermark{0};
    int attempts{1};
    ReadCallback cb;
  };

  void restart_round() {
    // A correct fleet converges in a handful of attempts (one per failover
    // or GC race).  Exhausting the budget means the List names a key some
    // shard never stored — a broken replication layer (e.g. the
    // broken-lostack stub losing an acknowledged insert).  GIVE UP instead
    // of retrying forever or aborting: the unanswered READ surfaces as a
    // liveness violation in the oracle / a wedged driver in tests, which is
    // a conviction, not a harness crash.
    if (++pending_->attempts >= 100) return;
    pending_->want.clear();
    pending_->got.clear();
    send(routes_.node_of(coor_shard_), Message{pending_->txn, tag_arr_req(pending_->objs)});
  }

  void on_takeover(const TakeoverNotice& tn) {
    if (!routes_.update(tn.shard, tn.node, tn.epoch)) return;
    if (!pending_) return;
    if (tn.shard == coor_shard_) {
      // Our registration (and possibly the whole round) lived at the dead
      // coordinator: start the READ over at the new one.
      restart_round();
      return;
    }
    if (pending_->want.empty()) return;  // round 1 in flight, nothing to re-send
    for (const auto& [obj, key] : pending_->want) {
      if (place_.shard_of(obj) != tn.shard || pending_->got.count(obj) != 0) continue;
      send(tn.node, Message{pending_->txn, ReadValReq{obj, key, pending_->watermark}});
    }
  }

  void complete() {
    // Deregister from watermark accounting (fire-and-forget, sender-keyed).
    send(routes_.node_of(coor_shard_), Message{kInvalidTxn, ReadDoneReq{pending_->txn}});
    ReadResult result;
    result.txn = pending_->txn;
    for (ObjectId obj : pending_->objs) result.values.emplace_back(obj, pending_->got.at(obj));
    rec_.finish_read(pending_->txn, result.values, pending_->tag,
                     /*rounds=*/2 * pending_->attempts, /*max_versions=*/1);
    auto cb = std::move(pending_->cb);
    pending_.reset();
    cb(result);
  }

  HistoryRecorder& rec_;
  Placement place_;
  std::size_t coor_shard_;
  bool replicated_;
  ShardRoutes routes_;
  std::optional<Pending> pending_;
};

class SystemB final : public ProtocolSystem {
 public:
  SystemB(std::string name, const SystemConfig& cfg, Runtime& rt,
          std::vector<ReaderB*> readers, std::vector<CoorWriter*> writers)
      : ProtocolSystem(std::move(name), cfg, rt), readers_(std::move(readers)),
        writers_(std::move(writers)) {}

  std::size_t num_readers() const override { return readers_.size(); }
  std::size_t num_writers() const override { return writers_.size(); }
  ReadClientApi& reader(std::size_t i) override { return *readers_.at(i); }
  WriteClientApi& writer(std::size_t i) override { return *writers_.at(i); }

 private:
  std::vector<ReaderB*> readers_;
  std::vector<CoorWriter*> writers_;
};

const ProtocolRegistration kRegisterAlgoB{
    ProtocolTraits{
        .name = "algo-b",
        .summary = "§8: SNW + one-version two-round READs, MWMR, coordinator-ordered",
        .claims_strict_serializability = true,
        .provides_tags = true,
        .snow_s = true,
        .snow_n = true,
        .snow_o = false,  // two rounds
        .snow_w = true,
        .mwmr = true,
        .supports_replication = true,
        .version_bound = "1",
    },
    [](Runtime& rt, HistoryRecorder& rec, const SystemConfig& cfg, const BuildOptions& opts) {
      AlgoBOptions o;
      o.coordinator = static_cast<std::size_t>(opts.get_int("coordinator", 0));
      o.gc_versions = opts.get_bool("gc_versions", true);
      o.replicas = static_cast<std::size_t>(opts.get_int("replicas", 1));
      o.wal_dir = opts.get("wal_dir", "");
      o.unsafe_ack = opts.get_bool("unsafe_ack", false);
      return build_algo_b(rt, rec, cfg, o);
    }};

}  // namespace

std::unique_ptr<ProtocolSystem> build_algo_b(Runtime& rt, HistoryRecorder& rec,
                                             const SystemConfig& cfg, AlgoBOptions opts) {
  cfg.validate();
  const Placement place(cfg);
  if (opts.coordinator >= place.num_servers()) {
    throw std::invalid_argument("coordinator shard " + std::to_string(opts.coordinator) +
                                " out of range (servers = " +
                                std::to_string(place.num_servers()) + ")");
  }
  if (opts.replicas != 1 && opts.replicas != 2) {
    throw std::invalid_argument("algo-b supports replicas 1 or 2, got " +
                                std::to_string(opts.replicas));
  }
  rec.attach_runtime(&rt);
  const bool repl = opts.replicas == 2;
  const std::size_t servers = place.num_servers();
  const NodeId base = static_cast<NodeId>(servers + cfg.num_readers + cfg.num_writers);
  std::vector<NodeId> clients;
  for (std::size_t i = 0; i < cfg.num_readers + cfg.num_writers; ++i) {
    clients.push_back(static_cast<NodeId>(servers + i));
  }
  const auto make_wal = [&opts](NodeId node) -> std::unique_ptr<WalStorage> {
    if (opts.wal_dir.empty()) return std::make_unique<MemWal>();
    return std::make_unique<FileWal>(opts.wal_dir + "/node-" + std::to_string(node) + ".wal");
  };
  const auto repl_cfg = [&](std::size_t s, bool primary_side) {
    Replicator::Config c;
    c.shard = s;
    c.self = primary_side ? static_cast<NodeId>(s) : static_cast<NodeId>(base + s);
    c.peer = primary_side ? static_cast<NodeId>(base + s) : static_cast<NodeId>(s);
    c.start_primary = primary_side;
    c.has_list = s == opts.coordinator;
    c.num_objects = cfg.num_objects;
    c.notify = clients;
    c.unsafe_ack = opts.unsafe_ack;
    return c;
  };
  for (std::size_t i = 0; i < servers; ++i) {
    auto node = repl ? std::make_unique<ServerB>(cfg.num_objects, i == opts.coordinator,
                                                 opts.gc_versions, repl_cfg(i, true),
                                                 make_wal(static_cast<NodeId>(i)))
                     : std::make_unique<ServerB>(cfg.num_objects, i == opts.coordinator,
                                                 opts.gc_versions);
    const NodeId id = rt.add_node(std::move(node));
    SNOW_CHECK(id == i);  // servers occupy node ids [0, s)
  }
  std::vector<ReaderB*> readers;
  for (std::size_t i = 0; i < cfg.num_readers; ++i) {
    auto node = std::make_unique<ReaderB>(rec, place, opts.coordinator, repl);
    readers.push_back(node.get());
    rt.add_node(std::move(node));
  }
  std::vector<CoorWriter*> writers;
  for (std::size_t i = 0; i < cfg.num_writers; ++i) {
    auto node = std::make_unique<CoorWriter>(rec, place, opts.coordinator,
                                             /*send_finalize=*/opts.gc_versions, repl);
    writers.push_back(node.get());
    rt.add_node(std::move(node));
  }
  if (repl) {
    // Backup shards live AFTER the clients so existing node layouts (and the
    // scripted adversary schedules that rely on them) are unchanged.
    for (std::size_t s = 0; s < servers; ++s) {
      const NodeId id = rt.add_node(std::make_unique<ServerB>(
          cfg.num_objects, s == opts.coordinator, opts.gc_versions, repl_cfg(s, false),
          make_wal(static_cast<NodeId>(base + s))));
      SNOW_CHECK(id == base + s);
    }
  }
  return std::make_unique<SystemB>(opts.name, cfg, rt, std::move(readers), std::move(writers));
}

}  // namespace snowkit

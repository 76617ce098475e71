#include "proto/algo_c/algo_c.hpp"

#include <algorithm>
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

/// Server for Algorithm C.  Replication (replicas=2) mirrors algo-b's
/// ServerB: a Replicator consumes replication traffic first, backups
/// park-or-redirect client traffic (Replicator::defer_client), state
/// mutations ride the replicated log, and write acks wait for the backup.
/// read-vals is served immediately from committed state — N holds across
/// failover.
class ServerC final : public Node {
 public:
  ServerC(std::size_t k, bool is_coordinator, bool gc,
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
    if (std::holds_alternative<ReadValsReq>(m.payload)) {
      const auto& req = std::get<ReadValsReq>(m.payload);
      // Bounded response: the live chain — with the watermark flowing this
      // is the paper's <=|W|+1 candidate versions, not the full history.
      send(from, Message{m.txn, ReadValsResp{req.obj, store(req.obj).all()}});
      return;
    }
    if (const auto* uc = std::get_if<UpdateCoorReq>(&m.payload)) {
      handle_update_coor(rt(), id(), from, m.txn, *uc, list_, repl_.get());
      return;
    }
    if (const auto* gt = std::get_if<GetTagArrReq>(&m.payload)) {
      list_->register_reader(from, m.txn);
      send(from, Message{m.txn, list_->tag_arr(gt->objs, /*with_history=*/true)});
      return;
    }
    SNOW_UNREACHABLE("algo-c server got unexpected payload");
  }

 private:
  VersionStore& store(ObjectId obj) { return stores_[obj]; }

  std::size_t k_;
  bool is_coordinator_;
  bool gc_;
  std::map<ObjectId, VersionStore> stores_;  ///< per hosted object.
  std::optional<CoorList> list_;             ///< coordinator only.
  std::unique_ptr<Replicator> repl_;         ///< replicas=2 only.
};

class ReaderC final : public Node, public ReadClientApi {
 public:
  ReaderC(HistoryRecorder& rec, const Placement& place, std::size_t coor_shard, bool may_retry)
      : rec_(rec), place_(place), coor_shard_(coor_shard), may_retry_(may_retry),
        routes_(place.num_servers()) {}

  void read(std::vector<ObjectId> objs, ReadCallback cb) override {
    SNOW_CHECK_MSG(!pending_, "reader " << id() << " already has a READ in flight");
    SNOW_CHECK(!objs.empty());
    const TxnId txn = rec_.begin_read(id(), objs);
    pending_.emplace();
    pending_->txn = txn;
    pending_->objs = std::move(objs);
    pending_->cb = std::move(cb);
    pending_->attempts = 1;
    send_round();
  }

  NodeId node_id() const override { return id(); }
  std::size_t num_objects() const override { return place_.num_objects(); }

  void on_message(NodeId, const Message& m) override {
    if (const auto* tn = std::get_if<TakeoverNotice>(&m.payload)) {
      // A shard we depend on failed over: restart the (one-round) READ
      // against the current routes.  Any straggler responses from the old
      // attempt remain safe to consume (see GetTagArrResp below).
      if (!routes_.update(tn->shard, tn->node, tn->epoch)) return;
      if (!pending_) return;
      retry();
      return;
    }
    if (const auto* ta = std::get_if<GetTagArrResp>(&m.payload)) {
      // Responses from a superseded retry attempt are indistinguishable from
      // current ones (same txn id) and safe to consume: any Vals snapshot a
      // server sent for this READ still supports the t* feasibility argument.
      if (!pending_ || pending_->txn != m.txn) return;
      pending_->tag_arr = *ta;
      maybe_complete();
      return;
    }
    if (const auto* rv = std::get_if<ReadValsResp>(&m.payload)) {
      if (!pending_ || pending_->txn != m.txn) return;
      pending_->vals[rv->obj] = rv->versions;
      maybe_complete();
      return;
    }
    SNOW_UNREACHABLE("algo-c reader got unexpected payload");
  }

 private:
  struct Pending {
    TxnId txn{kInvalidTxn};
    std::vector<ObjectId> objs;
    ReadCallback cb;
    std::optional<GetTagArrResp> tag_arr;
    std::map<ObjectId, std::vector<Version>> vals;
    int attempts{0};
  };

  void send_round() {
    pending_->tag_arr.reset();
    pending_->vals.clear();
    send(routes_.node_of(coor_shard_), Message{pending_->txn, tag_arr_req(pending_->objs)});
    for (ObjectId obj : pending_->objs) {
      send(routes_.node_of(place_.shard_of(obj)), Message{pending_->txn, ReadValsReq{obj}});
    }
  }

  void maybe_complete() {
    if (!pending_->tag_arr || pending_->vals.size() != pending_->objs.size()) return;

    const GetTagArrResp& ta = *pending_->tag_arr;
    // Feasibility descent over List positions t_r >= t >= 0 (header comment).
    // Candidate cuts: t_r and every listed position (others change nothing).
    // Settling below t_r only passes positions of writes still concurrent
    // with the READ, so there is no real-time inversion.
    std::vector<Tag> cuts{ta.tag};
    for (const TagArrEntry& e : ta.entries) {
      for (const ListedKey& lk : e.history) {
        if (lk.position <= ta.tag) cuts.push_back(lk.position);
      }
    }
    std::sort(cuts.begin(), cuts.end(), std::greater<>());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

    for (Tag t : cuts) {
      std::vector<std::pair<ObjectId, Value>> values;
      if (!try_cut(t, values)) continue;
      complete(t, std::move(values));
      return;
    }

    // No feasible cut: only possible when server-side GC raced this READ
    // (or a failover handed us mixed-lineage snapshots).
    SNOW_CHECK_MSG(may_retry_, "algo-c descent failed without GC enabled");
    retry();
  }

  void retry() {
    // Same give-up discipline as ReaderB::restart_round: a correct fleet
    // converges in a handful of attempts (one per failover or GC race).
    // Exhausting the budget means a shard lost a version the List names —
    // e.g. the broken-lostack stub dropping an acknowledged insert.  GIVE UP
    // instead of aborting the client: the unanswered READ surfaces as a
    // liveness violation in the oracle, a conviction rather than a crash.
    if (pending_->attempts >= 100) return;
    ++pending_->attempts;
    send_round();
  }

  bool try_cut(Tag t, std::vector<std::pair<ObjectId, Value>>& out) const {
    const GetTagArrResp& ta = *pending_->tag_arr;
    for (ObjectId obj : pending_->objs) {
      // Newest position <= t writing this object.  The shipped history is
      // GC'd below its anchor, so a cut older than every shipped entry is
      // unresolvable — infeasible, NOT "the initial version": treating it as
      // kappa_0 could resurrect a pruned prefix as a stale read.
      const WriteKey* key = nullptr;
      for (const ListedKey& lk : tag_entry(ta.entries, obj).history) {
        if (lk.position <= t) key = &lk.key;  // history is position-ascending
      }
      if (key == nullptr) return false;
      const auto& versions = pending_->vals.at(obj);
      const auto it = std::find_if(versions.begin(), versions.end(),
                                   [&](const Version& v) { return v.key == *key; });
      if (it == versions.end()) return false;
      out.emplace_back(obj, it->value);
    }
    return true;
  }

  void complete(Tag t, std::vector<std::pair<ObjectId, Value>> values) {
    int max_versions = 0;
    for (const auto& [obj, versions] : pending_->vals) {
      (void)obj;
      max_versions = std::max(max_versions, static_cast<int>(versions.size()));
    }
    // Deregister from watermark accounting (fire-and-forget; keyed by sender
    // node, so it carries no txn).
    send(routes_.node_of(coor_shard_), Message{kInvalidTxn, ReadDoneReq{pending_->txn}});
    ReadResult result;
    result.txn = pending_->txn;
    result.values = values;
    rec_.finish_read(pending_->txn, std::move(values), t, /*rounds=*/pending_->attempts,
                     max_versions);
    auto cb = std::move(pending_->cb);
    pending_.reset();
    cb(result);
  }

  HistoryRecorder& rec_;
  Placement place_;
  std::size_t coor_shard_;
  bool may_retry_;
  ShardRoutes routes_;
  std::optional<Pending> pending_;
};

class SystemC final : public ProtocolSystem {
 public:
  SystemC(const SystemConfig& cfg, Runtime& rt, std::vector<ReaderC*> readers,
          std::vector<CoorWriter*> writers)
      : ProtocolSystem("algo-c", cfg, rt), readers_(std::move(readers)),
        writers_(std::move(writers)) {}

  std::size_t num_readers() const override { return readers_.size(); }
  std::size_t num_writers() const override { return writers_.size(); }
  ReadClientApi& reader(std::size_t i) override { return *readers_.at(i); }
  WriteClientApi& writer(std::size_t i) override { return *writers_.at(i); }

 private:
  std::vector<ReaderC*> readers_;
  std::vector<CoorWriter*> writers_;
};

const ProtocolRegistration kRegisterAlgoC{
    ProtocolTraits{
        .name = "algo-c",
        .summary = "§9: SNW + one-round READs at <=|W| versions per response, MWMR",
        .claims_strict_serializability = true,
        .provides_tags = true,
        .snow_s = true,
        .snow_n = true,
        .snow_o = false,  // one round but multi-version responses
        .snow_w = true,
        .mwmr = true,
        .supports_replication = true,
        .version_bound = "<=|W|+1",
    },
    [](Runtime& rt, HistoryRecorder& rec, const SystemConfig& cfg, const BuildOptions& opts) {
      AlgoCOptions o;
      o.coordinator = static_cast<std::size_t>(opts.get_int("coordinator", 0));
      o.gc_versions = opts.get_bool("gc_versions", true);
      o.replicas = static_cast<std::size_t>(opts.get_int("replicas", 1));
      o.wal_dir = opts.get("wal_dir", "");
      o.unsafe_ack = opts.get_bool("unsafe_ack", false);
      return build_algo_c(rt, rec, cfg, o);
    }};

}  // namespace

std::unique_ptr<ProtocolSystem> build_algo_c(Runtime& rt, HistoryRecorder& rec,
                                             const SystemConfig& cfg, AlgoCOptions opts) {
  cfg.validate();
  const Placement place(cfg);
  if (opts.coordinator >= place.num_servers()) {
    throw std::invalid_argument("coordinator shard " + std::to_string(opts.coordinator) +
                                " out of range (servers = " +
                                std::to_string(place.num_servers()) + ")");
  }
  if (opts.replicas != 1 && opts.replicas != 2) {
    throw std::invalid_argument("algo-c supports replicas 1 or 2, got " +
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
    auto node = repl ? std::make_unique<ServerC>(cfg.num_objects, i == opts.coordinator,
                                                 opts.gc_versions, repl_cfg(i, true),
                                                 make_wal(static_cast<NodeId>(i)))
                     : std::make_unique<ServerC>(cfg.num_objects, i == opts.coordinator,
                                                 opts.gc_versions);
    const NodeId id = rt.add_node(std::move(node));
    SNOW_CHECK(id == i);
  }
  std::vector<ReaderC*> readers;
  for (std::size_t i = 0; i < cfg.num_readers; ++i) {
    auto node = std::make_unique<ReaderC>(rec, place, opts.coordinator,
                                          /*may_retry=*/opts.gc_versions || repl);
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
      const NodeId id = rt.add_node(std::make_unique<ServerC>(
          cfg.num_objects, s == opts.coordinator, opts.gc_versions, repl_cfg(s, false),
          make_wal(static_cast<NodeId>(base + s))));
      SNOW_CHECK(id == base + s);
    }
  }
  return std::make_unique<SystemC>(cfg, rt, std::move(readers), std::move(writers));
}

}  // namespace snowkit

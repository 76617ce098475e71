#include "proto/algo_b/algo_b.hpp"

#include <map>
#include <optional>
#include <utility>

#include "common/assert.hpp"
#include "core/registry.hpp"
#include "proto/version_server.hpp"

namespace snowkit {
namespace {

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
      read_fleet_options(opts, o);
      return build_algo_b(rt, rec, cfg, o);
    }};

}  // namespace

std::unique_ptr<ProtocolSystem> build_algo_b(Runtime& rt, HistoryRecorder& rec,
                                             const SystemConfig& cfg, AlgoBOptions opts) {
  VersionFleet fleet = build_version_fleet(
      rt, rec, cfg, fleet_spec(opts), [&](const Placement& place, bool replicated) {
        auto reader = std::make_unique<ReaderB>(rec, place, opts.coordinator, replicated);
        return add_reader_node(rt, std::move(reader));
      });
  return std::make_unique<VersionSystem>(opts.name, cfg, rt, std::move(fleet));
}

}  // namespace snowkit

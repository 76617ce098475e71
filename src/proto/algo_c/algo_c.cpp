#include "proto/algo_c/algo_c.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <utility>

#include "common/assert.hpp"
#include "core/registry.hpp"
#include "proto/version_server.hpp"

namespace snowkit {
namespace {

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
      read_fleet_options(opts, o);
      return build_algo_c(rt, rec, cfg, o);
    }};

}  // namespace

std::unique_ptr<ProtocolSystem> build_algo_c(Runtime& rt, HistoryRecorder& rec,
                                             const SystemConfig& cfg, AlgoCOptions opts) {
  VersionFleetSpec spec = fleet_spec(opts);
  spec.tag_history = true;
  VersionFleet fleet =
      build_version_fleet(rt, rec, cfg, spec, [&](const Placement& place, bool replicated) {
        const bool may_retry = opts.gc_versions || replicated;
        auto reader = std::make_unique<ReaderC>(rec, place, opts.coordinator, may_retry);
        return add_reader_node(rt, std::move(reader));
      });
  return std::make_unique<VersionSystem>("algo-c", cfg, rt, std::move(fleet));
}

}  // namespace snowkit

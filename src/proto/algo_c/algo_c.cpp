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

class ReaderC final : public ReadClient {
 public:
  ReaderC(HistoryRecorder& rec, const Placement& place, std::size_t coor_shard, bool replicated,
          bool may_retry)
      : ReadClient(rec, place, replicated, may_retry), coor_shard_(coor_shard) {}

 private:
  void attempt() override {
    tag_arr_.reset();
    vals_.clear();
    // One read-vals-batch per server, the coordinator's carrying the
    // get-tag-arr, each with the tag of this reader's last READ as its read
    // floor.  Every position up to that tag was listed, so every server had
    // stored its versions, before this READ began: the descent below always
    // finds that cut feasible and never settles under it, so no server need
    // send a finalized version older than the newest one at or below it.
    send_tag_arr_round(coor_shard_, tag_arr_req(objs()),
                       read_batches_by_shard(place(), floor_, objs()));
  }

  // Responses from a superseded attempt are indistinguishable from current
  // ones (same txn id) and safe to consume: any Vals snapshot a server sent
  // for this READ still supports the t* feasibility argument.
  bool on_reply(NodeId, const Message& m) override {
    if (const auto* ta = std::get_if<GetTagArrResp>(&m.payload)) {
      tag_arr_ = *ta;
      maybe_complete();
      return true;
    }
    if (const auto* rv = std::get_if<ReadValsBatchResp>(&m.payload)) {
      for (const ObjectVersions& e : rv->entries) vals_[e.obj] = e.versions;
      maybe_complete();
      return true;
    }
    return false;
  }

  // A shard we depend on failed over: restart the (one-round) READ against
  // the current routes.
  void on_takeover(const TakeoverNotice&) override {
    if (in_flight()) retry("a shard failed over");
  }

  void maybe_complete() {
    if (!tag_arr_ || vals_.size() != objs().size()) return;

    const GetTagArrResp& ta = *tag_arr_;
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
    retry("algo-c found no feasible cut");
  }

  bool try_cut(Tag t, std::vector<std::pair<ObjectId, Value>>& out) const {
    const GetTagArrResp& ta = *tag_arr_;
    for (ObjectId obj : objs()) {
      // Newest position <= t writing this object.  The shipped history is
      // GC'd below its anchor, so a cut older than every shipped entry is
      // unresolvable — infeasible, NOT "the initial version": treating it as
      // kappa_0 could resurrect a pruned prefix as a stale read.
      const WriteKey* key = nullptr;
      for (const ListedKey& lk : tag_entry(ta.entries, obj).history) {
        if (lk.position <= t) key = &lk.key;  // history is position-ascending
      }
      if (key == nullptr) return false;
      const auto& versions = vals_.at(obj);
      const auto it = std::find_if(versions.begin(), versions.end(),
                                   [&](const Version& v) { return v.key == *key; });
      if (it == versions.end()) return false;
      out.emplace_back(obj, it->value);
    }
    return true;
  }

  void complete(Tag t, std::vector<std::pair<ObjectId, Value>> values) {
    int max_versions = 0;
    for (const auto& [obj, versions] : vals_) {
      (void)obj;
      max_versions = std::max(max_versions, static_cast<int>(versions.size()));
    }
    release_registration(coor_shard_);
    // The floor costs a byte or two per batch and can only trim an object
    // with more than one live version.  This READ's lists and its tag
    // array's histories show whether its objects had any (the histories
    // even where a floor trimmed the lists), so a reader of cold objects
    // sends none.
    const bool hot = max_versions > 1 ||
                     std::any_of(tag_arr_->entries.begin(), tag_arr_->entries.end(),
                                 [](const TagArrEntry& e) { return e.history.size() > 1; });
    floor_ = hot ? tag_arr_->tag : 0;
    finish(std::move(values), t, /*rounds=*/attempts(), max_versions);
  }

  std::size_t coor_shard_;
  Tag floor_{0};  ///< the read floor: t_r of the last READ this reader completed, or 0.
  std::optional<GetTagArrResp> tag_arr_;
  std::map<ObjectId, std::vector<Version>> vals_;
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
        return std::make_unique<ReaderC>(rec, place, opts.coordinator, replicated, may_retry);
      });
  return std::make_unique<ProtocolSystem>("algo-c", cfg, rt, std::move(fleet.readers),
                                          std::move(fleet.writers));
}

}  // namespace snowkit

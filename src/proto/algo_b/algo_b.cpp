#include "proto/algo_b/algo_b.hpp"

#include <map>
#include <utility>

#include "common/assert.hpp"
#include "core/registry.hpp"
#include "proto/version_server.hpp"

namespace snowkit {
namespace {

class ReaderB final : public ReadClient {
 public:
  ReaderB(HistoryRecorder& rec, const Placement& place, std::size_t coor_shard, bool replicated)
      : ReadClient(rec, place, replicated, /*may_retry=*/replicated), coor_shard_(coor_shard) {}

 private:
  void attempt() override {
    want_.clear();
    got_.clear();
    send(route(coor_shard_), Message{txn(), tag_arr_req(objs())});
  }

  bool on_reply(NodeId, const Message& m) override {
    if (const auto* ta = std::get_if<GetTagArrResp>(&m.payload)) {
      // Only the first tag array per attempt drives this round; later ones
      // are duplicates or a superseded attempt's (failover retries).
      if (!want_.empty()) return true;
      tag_ = ta->tag;
      watermark_ = ta->watermark;
      for (ObjectId obj : objs()) want_[obj] = tag_entry(ta->entries, obj).latest;
      send_by_shard(read_batches_by_shard(place(), watermark_, want_));
      return true;
    }
    if (const auto* rb = std::get_if<ReadValBatchResp>(&m.payload)) {
      for (const BatchReadResult& e : rb->entries) {
        const auto it = want_.find(e.obj);
        if (it == want_.end() || !(it->second == e.key)) continue;  // stale attempt
        if (!e.found) {
          // Only a failover can race GC past a watermark-protected key:
          // restart from the coordinator.
          retry("algo-b requested a watermark-protected key that is gone");
          return true;
        }
        got_[e.obj] = e.value;
      }
      if (got_.size() == objs().size()) complete();
      return true;
    }
    return false;
  }

  void on_takeover(const TakeoverNotice& tn) override {
    if (!in_flight()) return;
    if (tn.shard == coor_shard_) {
      // Our registration (and possibly the whole round) lived at the dead
      // coordinator: start the READ over at the new one.
      retry("the coordinator failed over");
      return;
    }
    // Re-send the failed-over shard's batch, minus what it already answered.
    std::map<ObjectId, WriteKey> missing;  // empty while round 1 is in flight
    for (const auto& [obj, key] : want_) {
      if (place().shard_of(obj) == tn.shard && got_.count(obj) == 0) missing.emplace(obj, key);
    }
    send_by_shard(read_batches_by_shard(place(), watermark_, missing));
  }

  void complete() {
    release_registration(coor_shard_);
    std::vector<std::pair<ObjectId, Value>> values;
    for (ObjectId obj : objs()) values.emplace_back(obj, got_.at(obj));
    finish(std::move(values), tag_, /*rounds=*/2 * attempts(), /*max_versions=*/1);
  }

  std::size_t coor_shard_;
  std::map<ObjectId, WriteKey> want_;  ///< this attempt's requested keys.
  std::map<ObjectId, Value> got_;
  Tag tag_{0};
  Tag watermark_{0};
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
        return std::make_unique<ReaderB>(rec, place, opts.coordinator, replicated);
      });
  return std::make_unique<ProtocolSystem>(opts.name, cfg, rt, std::move(fleet.readers),
                                          std::move(fleet.writers));
}

}  // namespace snowkit

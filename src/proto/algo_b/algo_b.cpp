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
      for (ObjectId obj : objs()) {
        const WriteKey& key = tag_entry(ta->entries, obj).latest;
        want_[obj] = key;
        send(server_of(obj), Message{m.txn, ReadValReq{obj, key, ta->watermark}});
      }
      return true;
    }
    if (const auto* rr = std::get_if<ReadValResp>(&m.payload)) {
      const auto it = want_.find(rr->obj);
      if (it == want_.end() || !(it->second == rr->key)) return true;  // stale attempt
      if (!rr->found) {
        // Only a failover can race GC past a watermark-protected key:
        // restart from the coordinator.
        retry("algo-b requested a watermark-protected key that is gone");
        return true;
      }
      got_[rr->obj] = rr->value;
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
    for (const auto& [obj, key] : want_) {  // empty while round 1 is in flight
      if (place().shard_of(obj) != tn.shard || got_.count(obj) != 0) continue;
      send(tn.node, Message{txn(), ReadValReq{obj, key, watermark_}});
    }
  }

  void complete() {
    // Deregister from watermark accounting (fire-and-forget, sender-keyed).
    send(route(coor_shard_), Message{kInvalidTxn, ReadDoneReq{txn()}});
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

#include "proto/algo_b/algo_b.hpp"

#include <algorithm>
#include <map>
#include <set>
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
    if (attempts() == 1) {  // a new READ
      rounds_ = 0;
      max_versions_ = 1;
    }
    ++rounds_;
    want_.clear();
    got_.clear();
    guesses_.clear();
    round2_sent_ = false;
    // Round 1: one read-vals-batch per shard the READ touches, the
    // get-tag-arr folded into s*'s.  Every server answers each object with
    // one version: s* the one its tag array names, the others a guess, so
    // the batches need no read floor.
    std::map<std::size_t, ReadValsBatchReq> batches =
        read_batches_by_shard(place(), /*floor=*/0, objs());
    pending_.clear();
    for (const auto& [shard, batch] : batches) pending_.insert(shard);
    send_tag_arr_round(coor_shard_, tag_arr_req(objs()), std::move(batches));
  }

  bool on_reply(NodeId, const Message& m) override {
    if (const auto* ta = std::get_if<GetTagArrResp>(&m.payload)) {
      // Only the first tag array per attempt drives this round; later ones
      // are duplicates or a superseded attempt's (failover retries).
      if (!want_.empty()) return true;
      tag_ = ta->tag;
      watermark_ = ta->watermark;
      for (ObjectId obj : objs()) want_[obj] = tag_entry(ta->entries, obj).latest;
      resolve_and_continue();
      return true;
    }
    if (const auto* rv = std::get_if<ReadValsBatchResp>(&m.payload)) {
      // Any list is safe to consume, a superseded attempt's too: only the
      // version stored under latest[obj] is taken, and keys name immutable
      // versions.  A refuted guess goes to round 2.
      for (const ObjectVersions& e : rv->entries) {
        max_versions_ = std::max(max_versions_, static_cast<int>(e.versions.size()));
        guesses_[e.obj] = e.versions;
      }
      if (!rv->entries.empty()) pending_.erase(place().shard_of(rv->entries.front().obj));
      if (!want_.empty()) resolve_and_continue();
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
      maybe_complete();
      return true;
    }
    return false;
  }

  /// With the tag array in: takes every round-1 version whose key is
  /// latest[obj], then sends round 2 once every round-1 batch is in (a
  /// batch about to arrive usually resolves its objects for free), or
  /// completes.
  void resolve_and_continue() {
    for (const auto& [obj, versions] : guesses_) {
      const auto wit = want_.find(obj);
      if (wit == want_.end()) continue;
      for (const Version& v : versions) {
        if (v.key == wit->second) got_[obj] = v.value;
      }
    }
    guesses_.clear();
    if (!round2_sent_ && pending_.empty()) {
      // Round 2, once per attempt: one read-val-batch per shard for the
      // exact keys of the objects round 1 did not resolve.
      round2_sent_ = true;
      const std::map<ObjectId, WriteKey> missing = unresolved();
      if (!missing.empty()) {
        ++rounds_;
        send_by_shard(read_batches_by_shard(place(), watermark_, missing));
      }
    }
    maybe_complete();
  }

  void on_takeover(const TakeoverNotice& tn) override {
    if (!in_flight()) return;
    if (tn.shard == coor_shard_) {
      // Our registration (and possibly the whole round) lived at the dead
      // coordinator: start the READ over at the new one.
      retry("the coordinator failed over");
      return;
    }
    // Re-send the failed-over shard's outstanding batch: its round-1 batch
    // if it has not answered, else its round-2 batch minus what it answered.
    if (pending_.count(tn.shard) != 0) {
      std::map<std::size_t, ReadValsBatchReq> batches =
          read_batches_by_shard(place(), /*floor=*/0, objs());
      std::erase_if(batches, [&](const auto& e) { return e.first != tn.shard; });
      send_by_shard(std::move(batches));
      return;
    }
    if (!round2_sent_) return;
    std::map<ObjectId, WriteKey> missing = unresolved();
    std::erase_if(missing, [&](const auto& e) { return place().shard_of(e.first) != tn.shard; });
    send_by_shard(read_batches_by_shard(place(), watermark_, missing));
  }

  /// This attempt's objects without a value yet, with their keys.
  std::map<ObjectId, WriteKey> unresolved() const {
    std::map<ObjectId, WriteKey> out;
    for (const auto& [obj, key] : want_) {
      if (got_.count(obj) == 0) out.emplace(obj, key);
    }
    return out;
  }

  void maybe_complete() {
    if (want_.empty() || got_.size() != objs().size()) return;
    release_registration(coor_shard_);
    std::vector<std::pair<ObjectId, Value>> values;
    for (ObjectId obj : objs()) values.emplace_back(obj, got_.at(obj));
    finish(std::move(values), tag_, rounds_, max_versions_);
  }

  std::size_t coor_shard_;
  // The READ in flight: its rounds (client send-waves, for finish_read) and
  // the longest version list it was sent span its attempts; the rest is per
  // attempt.
  int rounds_{0};
  int max_versions_{1};
  std::set<std::size_t> pending_;  ///< shards whose round-1 batch is unanswered.
  bool round2_sent_{false};
  std::map<ObjectId, WriteKey> want_;  ///< this attempt's requested keys.
  std::map<ObjectId, std::vector<Version>> guesses_;  ///< round-1 lists not yet resolved.
  std::map<ObjectId, Value> got_;
  Tag tag_{0};
  Tag watermark_{0};
};

const ProtocolRegistration kRegisterAlgoB{
    ProtocolTraits{
        .name = "algo-b",
        .summary = "§8: SNW + one-version READs in 1-2 rounds, MWMR, coordinator-ordered",
        .claims_strict_serializability = true,
        .provides_tags = true,
        .snow_s = true,
        .snow_n = true,
        .snow_o = false,  // two rounds when a WRITE races the READ
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
  VersionFleetSpec spec = fleet_spec(opts);
  spec.last_inserted_reads = true;
  VersionFleet fleet = build_version_fleet(
      rt, rec, cfg, spec, [&](const Placement& place, bool replicated) {
        return std::make_unique<ReaderB>(rec, place, opts.coordinator, replicated);
      });
  return std::make_unique<ProtocolSystem>(opts.name, cfg, rt, std::move(fleet.readers),
                                          std::move(fleet.writers));
}

}  // namespace snowkit

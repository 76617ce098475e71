#include "proto/occ/occ.hpp"

#include <map>
#include <optional>

#include "common/assert.hpp"
#include "core/registry.hpp"
#include "proto/version_server.hpp"

namespace snowkit {
namespace {

class ReaderO final : public ReadClient {
 public:
  ReaderO(HistoryRecorder& rec, const Placement& place, std::size_t coor_shard, int max_optimistic)
      : ReadClient(rec, place), coor_shard_(coor_shard), max_optimistic_(max_optimistic) {}

 private:
  // One attempt per READ: a failed validation starts another round, not
  // another attempt — the rounds are unbounded by design.
  void attempt() override {
    guesses_.clear();
    for (ObjectId obj : objs()) guesses_[obj] = kInitialKey;
    watermark_ = 0;
    rounds_ = 0;
    pessimistic_ = false;
    send_round();
  }

  bool on_reply(NodeId, const Message& m) override {
    if (const auto* ta = std::get_if<GetTagArrResp>(&m.payload)) {
      if (pessimistic_) return true;
      tag_arr_ = *ta;
      maybe_finish_round();
      return true;
    }
    if (const auto* rb = std::get_if<ReadValBatchResp>(&m.payload)) {
      // Only entries for the CURRENT guesses count; late entries from a
      // superseded round carry a stale key and are dropped.
      for (const BatchReadResult& e : rb->entries) {
        auto it = guesses_.find(e.obj);
        if (it == guesses_.end() || !(it->second == e.key)) continue;
        // found == false means the speculative key was garbage-collected
        // under us — record the miss; it fails validation below and retries
        // with the tag array's (watermark-protected) keys.
        got_[e.obj] = e.found ? std::optional<Value>(e.value) : std::nullopt;
      }
      maybe_finish_round();
      return true;
    }
    return false;
  }

  void send_round() {
    ++rounds_;
    tag_arr_.reset();
    got_.clear();
    send(route(coor_shard_), Message{txn(), tag_arr_req(objs())});
    send_by_shard(read_batches_by_shard(place(), watermark_, guesses_));
  }

  void maybe_finish_round() {
    if (got_.size() != objs().size()) return;

    bool missed = false;
    for (const auto& [obj, v] : got_) {
      (void)obj;
      if (!v.has_value()) missed = true;
    }

    if (pessimistic_) {
      // Algorithm-B style second phase: the fetched keys were taken from a
      // tag array while this READ was registered, so they are
      // watermark-protected and form the cut at that array's tag
      // unconditionally.
      SNOW_CHECK_MSG(!missed, "occ pessimistic round requested a GC'd key");
      complete(pessimistic_tag_);
      return;
    }

    if (!tag_arr_) return;
    const GetTagArrResp& ta = *tag_arr_;
    watermark_ = std::max(watermark_, ta.watermark);
    bool validated = !missed;
    for (ObjectId obj : objs()) {
      if (!validated) break;
      if (!(tag_entry(ta.entries, obj).latest == guesses_.at(obj))) validated = false;
    }
    if (validated) {
      // The values just fetched are still the newest per object as of the
      // coordinator's List at tag t_r: a consistent cut.
      complete(ta.tag);
      return;
    }

    // Validation failed: adopt the newer keys and retry.
    for (ObjectId obj : objs()) guesses_[obj] = tag_entry(ta.entries, obj).latest;
    if (max_optimistic_ > 0 && rounds_ >= max_optimistic_) {
      // Bounded fallback: one pessimistic round reading exactly the cut the
      // last tag array named (no re-validation needed — Algorithm B).
      pessimistic_ = true;
      pessimistic_tag_ = ta.tag;
      ++rounds_;
      got_.clear();
      send_by_shard(read_batches_by_shard(place(), watermark_, guesses_));
      return;
    }
    send_round();
  }

  void complete(Tag tag) {
    release_registration(coor_shard_);
    std::vector<std::pair<ObjectId, Value>> values;
    for (ObjectId obj : objs()) values.emplace_back(obj, *got_.at(obj));
    finish(std::move(values), tag, rounds_, /*max_versions=*/1);
  }

  std::size_t coor_shard_;
  int max_optimistic_;
  // The READ in flight.
  std::map<ObjectId, WriteKey> guesses_;
  std::map<ObjectId, std::optional<Value>> got_;
  std::optional<GetTagArrResp> tag_arr_;
  Tag watermark_{0};  ///< newest coordinator watermark seen (read-val-batch piggyback).
  int rounds_{0};
  bool pessimistic_{false};
  Tag pessimistic_tag_{0};
};

const ProtocolRegistration kRegisterOcc{
    ProtocolTraits{
        .name = "occ-reads",
        .summary = "optimistic one-version reads: the (inf, 1) cell of Fig. 1(b)",
        .claims_strict_serializability = true,
        .provides_tags = true,
        .snow_s = true,
        .snow_n = true,
        .snow_o = false,  // one version but unbounded rounds
        .snow_w = true,
        .mwmr = true,
        .version_bound = "1",
    },
    [](Runtime& rt, HistoryRecorder& rec, const SystemConfig& cfg, const BuildOptions& opts) {
      OccOptions o;
      o.coordinator = static_cast<std::size_t>(opts.get_int("coordinator", 0));
      o.max_optimistic_rounds = static_cast<int>(opts.get_int("max_optimistic_rounds", 0));
      o.gc_versions = opts.get_bool("gc_versions", false);
      return build_occ(rt, rec, cfg, o);
    }};

}  // namespace

std::unique_ptr<ProtocolSystem> build_occ(Runtime& rt, HistoryRecorder& rec,
                                          const SystemConfig& cfg, OccOptions opts) {
  VersionFleetSpec spec;
  spec.coordinator = opts.coordinator;
  spec.gc_versions = opts.gc_versions;
  VersionFleet fleet = build_version_fleet(rt, rec, cfg, spec, [&](const Placement& place, bool) {
    return std::make_unique<ReaderO>(rec, place, opts.coordinator, opts.max_optimistic_rounds);
  });
  return std::make_unique<ProtocolSystem>("occ-reads", cfg, rt, std::move(fleet.readers),
                                          std::move(fleet.writers));
}

}  // namespace snowkit

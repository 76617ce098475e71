#include "proto/occ/occ.hpp"

#include <map>
#include <optional>

#include "common/assert.hpp"
#include "core/registry.hpp"
#include "proto/version_server.hpp"

namespace snowkit {
namespace {

class ReaderO final : public Node, public ReadClientApi {
 public:
  ReaderO(HistoryRecorder& rec, const Placement& place, NodeId coordinator, int max_optimistic)
      : rec_(rec), place_(place), coordinator_(coordinator), max_optimistic_(max_optimistic) {}

  void read(std::vector<ObjectId> objs, ReadCallback cb) override {
    SNOW_CHECK_MSG(!pending_, "reader " << id() << " already has a READ in flight");
    SNOW_CHECK(!objs.empty());
    const TxnId txn = rec_.begin_read(id(), objs);
    pending_.emplace();
    pending_->txn = txn;
    pending_->objs = std::move(objs);
    pending_->cb = std::move(cb);
    for (ObjectId obj : pending_->objs) pending_->guesses[obj] = kInitialKey;
    send_round();
  }

  NodeId node_id() const override { return id(); }
  std::size_t num_objects() const override { return place_.num_objects(); }

  void on_message(NodeId, const Message& m) override {
    if (const auto* ta = std::get_if<GetTagArrResp>(&m.payload)) {
      if (!pending_ || pending_->txn != m.txn || pending_->pessimistic) return;
      pending_->tag_arr = *ta;
      maybe_finish_round();
      return;
    }
    if (const auto* rv = std::get_if<ReadValResp>(&m.payload)) {
      if (!pending_ || pending_->txn != m.txn) return;
      // Only responses for the CURRENT guesses count; late responses from a
      // superseded round carry a stale key and are dropped.
      auto it = pending_->guesses.find(rv->obj);
      if (it == pending_->guesses.end() || !(it->second == rv->key)) return;
      // found == false means the speculative key was garbage-collected under
      // us — record the miss; it fails validation below and retries with the
      // tag array's (watermark-protected) keys.
      pending_->got[rv->obj] = rv->found ? std::optional<Value>(rv->value) : std::nullopt;
      maybe_finish_round();
      return;
    }
    SNOW_UNREACHABLE("occ reader got unexpected payload");
  }

 private:
  struct Pending {
    TxnId txn{kInvalidTxn};
    std::vector<ObjectId> objs;
    ReadCallback cb;
    std::map<ObjectId, WriteKey> guesses;
    std::map<ObjectId, std::optional<Value>> got;
    std::optional<GetTagArrResp> tag_arr;
    Tag watermark{0};  ///< newest coordinator watermark seen (read-val piggyback).
    int rounds{0};
    bool pessimistic{false};
    Tag pessimistic_tag{0};
  };

  void send_round() {
    ++pending_->rounds;
    pending_->tag_arr.reset();
    pending_->got.clear();
    send(coordinator_, Message{pending_->txn, tag_arr_req(pending_->objs)});
    for (const auto& [obj, key] : pending_->guesses) {
      send(place_.server_node(obj),
           Message{pending_->txn, ReadValReq{obj, key, pending_->watermark}});
    }
  }

  void maybe_finish_round() {
    if (pending_->got.size() != pending_->objs.size()) return;

    bool missed = false;
    for (const auto& [obj, v] : pending_->got) {
      (void)obj;
      if (!v.has_value()) missed = true;
    }

    if (pending_->pessimistic) {
      // Algorithm-B style second phase: the fetched keys were taken from a
      // tag array while this READ was registered, so they are
      // watermark-protected and form the cut at that array's tag
      // unconditionally.
      SNOW_CHECK_MSG(!missed, "occ pessimistic round requested a GC'd key");
      complete(pending_->pessimistic_tag);
      return;
    }

    if (!pending_->tag_arr) return;
    const GetTagArrResp& ta = *pending_->tag_arr;
    pending_->watermark = std::max(pending_->watermark, ta.watermark);
    bool validated = !missed;
    for (ObjectId obj : pending_->objs) {
      if (!validated) break;
      if (!(tag_entry(ta.entries, obj).latest == pending_->guesses.at(obj))) validated = false;
    }
    if (validated) {
      // The values just fetched are still the newest per object as of the
      // coordinator's List at tag t_r: a consistent cut.
      complete(ta.tag);
      return;
    }

    // Validation failed: adopt the newer keys and retry.
    for (ObjectId obj : pending_->objs) pending_->guesses[obj] = tag_entry(ta.entries, obj).latest;
    if (max_optimistic_ > 0 && pending_->rounds >= max_optimistic_) {
      // Bounded fallback: one pessimistic round reading exactly the cut the
      // last tag array named (no re-validation needed — Algorithm B).
      pending_->pessimistic = true;
      pending_->pessimistic_tag = ta.tag;
      ++pending_->rounds;
      pending_->got.clear();
      for (const auto& [obj, key] : pending_->guesses) {
        send(place_.server_node(obj),
             Message{pending_->txn, ReadValReq{obj, key, pending_->watermark}});
      }
      return;
    }
    send_round();
  }

  void complete(Tag tag) {
    // Deregister from watermark accounting (fire-and-forget, sender-keyed).
    send(coordinator_, Message{kInvalidTxn, ReadDoneReq{pending_->txn}});
    ReadResult result;
    result.txn = pending_->txn;
    for (ObjectId obj : pending_->objs) {
      result.values.emplace_back(obj, *pending_->got.at(obj));
    }
    rec_.finish_read(pending_->txn, result.values, tag, pending_->rounds, /*max_versions=*/1);
    auto cb = std::move(pending_->cb);
    pending_.reset();
    cb(result);
  }

  HistoryRecorder& rec_;
  Placement place_;
  NodeId coordinator_;
  int max_optimistic_;
  std::optional<Pending> pending_;
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
  const auto coor = static_cast<NodeId>(opts.coordinator);
  VersionFleet fleet = build_version_fleet(rt, rec, cfg, spec, [&](const Placement& place, bool) {
    auto reader = std::make_unique<ReaderO>(rec, place, coor, opts.max_optimistic_rounds);
    return add_reader_node(rt, std::move(reader));
  });
  return std::make_unique<VersionSystem>("occ-reads", cfg, rt, std::move(fleet));
}

}  // namespace snowkit

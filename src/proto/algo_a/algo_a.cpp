#include "proto/algo_a/algo_a.hpp"

#include <map>

#include "common/assert.hpp"
#include "core/registry.hpp"
#include "proto/version_server.hpp"

namespace snowkit {
namespace {

class ReaderA final : public ReadClient {
 public:
  ReaderA(HistoryRecorder& rec, const Placement& place)
      : ReadClient(rec, place), latest_(place.num_objects(), kInitialKey) {}

 private:
  void attempt() override {
    // The read's Lemma-20 tag is the newest List position overall (not just
    // over the objects read): any WRITE that completed before this READ was
    // invoked already sits in List, so P2 (no real-time inversion) holds
    // even for writes touching other objects.
    tag_ = list_len_ - 1;
    got_.clear();
    std::map<ObjectId, WriteKey> keys;
    for (ObjectId obj : objs()) keys[obj] = latest_.at(obj);
    send_by_shard(read_batches_by_shard(place(), /*watermark=*/0, keys));
  }

  bool on_peer(NodeId from, const Message& m) override {
    const auto* ir = std::get_if<InfoReaderReq>(&m.payload);
    if (ir == nullptr) return false;
    // List only matters through each object's newest entry, so appending
    // (kappa, b_1..b_k) updates latest_ for the written objects.
    for (ObjectId obj : ir->objs) latest_.at(obj) = ir->key;
    send(from, Message{m.txn, InfoReaderAck{list_len_++}});
    return true;
  }

  bool on_reply(NodeId, const Message& m) override {
    const auto* rb = std::get_if<ReadValBatchResp>(&m.payload);
    if (rb == nullptr) return false;
    for (const BatchReadResult& e : rb->entries) got_[e.obj] = e.value;
    if (got_.size() < objs().size()) return true;
    std::vector<std::pair<ObjectId, Value>> values;
    for (ObjectId obj : objs()) values.emplace_back(obj, got_.at(obj));
    finish(std::move(values), tag_, /*rounds=*/1, /*max_versions=*/1);
    return true;
  }

  Tag list_len_{1};               ///< List length; List[0] is the initial entry.
  std::vector<WriteKey> latest_;  ///< per object: the key of its newest List entry.
  Tag tag_{0};                    ///< the READ in flight's tag.
  std::map<ObjectId, Value> got_;
};

class WriterA final : public WriteClient {
 public:
  WriterA(HistoryRecorder& rec, const Placement& place, std::vector<NodeId> readers)
      : WriteClient(rec, place), readers_(std::move(readers)) {}

 private:
  void start() override {
    key_ = WriteKey{++z_, id()};
    objs_ = write_set(writes());
    await_reader_acks_ = readers_.size();
    tag_ = 0;
    // One write-val per server, carrying all of its objects.
    await_server_acks_ = send_by_shard(write_vals_by_shard(place(), key_, writes()));
  }

  bool on_reply(NodeId, const Message& m) override {
    if (std::holds_alternative<WriteValAck>(m.payload)) {
      if (--await_server_acks_ == 0) {
        // info-reader phase: the C2C step.  With multiple readers (the
        // deliberately unsafe Fig. 1(a) demo) all readers are informed.
        for (NodeId r : readers_) send(r, Message{m.txn, InfoReaderReq{key_, objs_}});
      }
      return true;
    }
    if (const auto* ack = std::get_if<InfoReaderAck>(&m.payload)) {
      tag_ = std::max(tag_, ack->tag);
      if (--await_reader_acks_ == 0) finish(tag_, /*rounds=*/2);
      return true;
    }
    return false;
  }

  std::vector<NodeId> readers_;
  std::uint64_t z_ = 0;
  // The WRITE in flight.
  WriteKey key_;
  std::vector<ObjectId> objs_;           ///< the write set W, ascending.
  std::size_t await_server_acks_{0};     ///< one ack per written server.
  std::size_t await_reader_acks_{0};
  Tag tag_{0};
};

const ProtocolRegistration kRegisterAlgoA{
    ProtocolTraits{
        .name = "algo-a",
        .summary = "§5.2: full SNOW READs via client-to-client communication, MWSR",
        .claims_strict_serializability = true,
        .provides_tags = true,
        .snow_s = true,
        .snow_n = true,
        .snow_o = true,
        .snow_w = true,
        .mwmr = false,  // single reader; multi-reader builds are unsafe demos
    },
    [](Runtime& rt, HistoryRecorder& rec, const SystemConfig& cfg, const BuildOptions& opts) {
      AlgoAOptions o;
      o.allow_multiple_readers = opts.get_bool("allow_multiple_readers", false);
      return build_algo_a(rt, rec, cfg, o);
    }};

}  // namespace

std::unique_ptr<ProtocolSystem> build_algo_a(Runtime& rt, HistoryRecorder& rec,
                                             const SystemConfig& cfg, AlgoAOptions opts) {
  cfg.validate();
  SNOW_CHECK_MSG(cfg.num_readers == 1 || opts.allow_multiple_readers,
                 "Algorithm A is SNOW only in MWSR; pass allow_multiple_readers to build the "
                 "intentionally unsafe multi-reader demo");
  const Placement place(cfg);
  rec.attach_runtime(&rt);
  // No coordinator and no GC: Algorithm A's List lives at the reader, and
  // the version server serves its read-vals and write path.
  for (std::size_t i = 0; i < place.num_servers(); ++i) {
    VersionServer::Config server;
    server.num_objects = cfg.num_objects;
    const NodeId id = rt.add_node(std::make_unique<VersionServer>(std::move(server)));
    SNOW_CHECK(id == i);  // servers occupy node ids [0, s)
  }
  auto readers = add_clients<ReadClient>(rt, cfg.num_readers,
                                         [&] { return std::make_unique<ReaderA>(rec, place); });
  std::vector<NodeId> reader_ids;
  for (const ReadClient* r : readers) reader_ids.push_back(r->node_id());
  auto writers = add_clients<WriteClient>(
      rt, cfg.num_writers, [&] { return std::make_unique<WriterA>(rec, place, reader_ids); });
  return std::make_unique<ProtocolSystem>("algo-a", cfg, rt, std::move(readers),
                                          std::move(writers));
}

}  // namespace snowkit

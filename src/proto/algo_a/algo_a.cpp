#include "proto/algo_a/algo_a.hpp"

#include <map>

#include "common/assert.hpp"
#include "core/registry.hpp"
#include "proto/version_server.hpp"

namespace snowkit {
namespace {

class ReaderA final : public Node, public ReadClientApi {
 public:
  ReaderA(HistoryRecorder& rec, const Placement& place)
      : rec_(rec), place_(place), latest_(place.num_objects(), kInitialKey) {}

  void read(std::vector<ObjectId> objs, ReadCallback cb) override {
    SNOW_CHECK_MSG(!pending_, "reader " << id() << " already has a READ in flight");
    SNOW_CHECK(!objs.empty());
    const TxnId txn = rec_.begin_read(id(), objs);
    pending_.emplace();
    pending_->txn = txn;
    pending_->objs = objs;
    pending_->cb = std::move(cb);
    // The read's Lemma-20 tag is the newest List position overall (not just
    // over the objects read): any WRITE that completed before this READ was
    // invoked already sits in List, so P2 (no real-time inversion) holds
    // even for writes touching other objects.
    pending_->tag = list_len_ - 1;
    for (ObjectId obj : objs) {
      send(place_.server_node(obj), Message{txn, ReadValReq{obj, latest_.at(obj)}});
    }
  }

  NodeId node_id() const override { return id(); }
  std::size_t num_objects() const override { return place_.num_objects(); }

  void on_message(NodeId from, const Message& m) override {
    if (const auto* ir = std::get_if<InfoReaderReq>(&m.payload)) {
      // List only matters through each object's newest entry, so appending
      // (kappa, b_1..b_k) updates latest_ for the written objects.
      for (ObjectId obj : ir->objs) latest_.at(obj) = ir->key;
      send(from, Message{m.txn, InfoReaderAck{list_len_++}});
      return;
    }
    if (const auto* rr = std::get_if<ReadValResp>(&m.payload)) {
      SNOW_CHECK(pending_ && pending_->txn == m.txn);
      pending_->got[rr->obj] = rr->value;
      if (pending_->got.size() == pending_->objs.size()) complete();
      return;
    }
    SNOW_UNREACHABLE("algo-a reader got unexpected payload");
  }

 private:
  struct Pending {
    TxnId txn{kInvalidTxn};
    std::vector<ObjectId> objs;
    std::map<ObjectId, Value> got;
    Tag tag{0};
    ReadCallback cb;
  };

  void complete() {
    ReadResult result;
    result.txn = pending_->txn;
    for (ObjectId obj : pending_->objs) result.values.emplace_back(obj, pending_->got.at(obj));
    rec_.finish_read(pending_->txn, result.values, pending_->tag, /*rounds=*/1,
                     /*max_versions=*/1);
    auto cb = std::move(pending_->cb);
    pending_.reset();
    cb(result);
  }

  HistoryRecorder& rec_;
  Placement place_;
  Tag list_len_{1};               ///< List length; List[0] is the initial entry.
  std::vector<WriteKey> latest_;  ///< per object: the key of its newest List entry.
  std::optional<Pending> pending_;
};

class WriterA final : public Node, public WriteClientApi {
 public:
  WriterA(HistoryRecorder& rec, const Placement& place, std::vector<NodeId> readers)
      : rec_(rec), place_(place), readers_(std::move(readers)) {}

  void write(std::vector<std::pair<ObjectId, Value>> writes, WriteCallback cb) override {
    SNOW_CHECK_MSG(!pending_, "writer " << id() << " already has a WRITE in flight");
    SNOW_CHECK(!writes.empty());
    const TxnId txn = rec_.begin_write(id(), writes);
    pending_.emplace();
    pending_->txn = txn;
    pending_->key = WriteKey{++z_, id()};
    pending_->objs = write_set(writes);
    pending_->await_reader_acks = readers_.size();
    pending_->cb = std::move(cb);
    // One write-val per server, carrying all of its objects.
    auto by_shard = write_vals_by_shard(place_, pending_->key, writes);
    pending_->await_server_acks = by_shard.size();
    for (auto& [shard, wv] : by_shard) {
      send(static_cast<NodeId>(shard), Message{txn, std::move(wv)});
    }
  }

  NodeId node_id() const override { return id(); }
  std::size_t num_objects() const override { return place_.num_objects(); }

  void on_message(NodeId, const Message& m) override {
    if (std::holds_alternative<WriteValAck>(m.payload)) {
      SNOW_CHECK(pending_ && pending_->txn == m.txn);
      if (--pending_->await_server_acks == 0) {
        // info-reader phase: the C2C step.  With multiple readers (the
        // deliberately unsafe Fig. 1(a) demo) all readers are informed.
        for (NodeId r : readers_) {
          send(r, Message{m.txn, InfoReaderReq{pending_->key, pending_->objs}});
        }
      }
      return;
    }
    if (const auto* ack = std::get_if<InfoReaderAck>(&m.payload)) {
      SNOW_CHECK(pending_ && pending_->txn == m.txn);
      pending_->tag = std::max(pending_->tag, ack->tag);
      if (--pending_->await_reader_acks == 0) {
        rec_.finish_write(pending_->txn, pending_->tag, /*rounds=*/2);
        auto cb = std::move(pending_->cb);
        const WriteResult result{pending_->txn};
        pending_.reset();
        cb(result);
      }
      return;
    }
    SNOW_UNREACHABLE("algo-a writer got unexpected payload");
  }

 private:
  struct Pending {
    TxnId txn{kInvalidTxn};
    WriteKey key;
    std::vector<ObjectId> objs;  ///< the write set W, ascending.
    std::size_t await_server_acks{0};  ///< one ack per written server.
    std::size_t await_reader_acks{0};
    Tag tag{0};
    WriteCallback cb;
  };

  HistoryRecorder& rec_;
  Placement place_;
  std::vector<NodeId> readers_;
  std::uint64_t z_ = 0;
  std::optional<Pending> pending_;
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
  VersionFleet fleet;
  std::vector<NodeId> reader_ids;
  for (std::size_t i = 0; i < cfg.num_readers; ++i) {
    auto node = std::make_unique<ReaderA>(rec, place);
    fleet.readers.push_back(node.get());
    reader_ids.push_back(rt.add_node(std::move(node)));
  }
  for (std::size_t i = 0; i < cfg.num_writers; ++i) {
    auto node = std::make_unique<WriterA>(rec, place, reader_ids);
    fleet.writers.push_back(node.get());
    rt.add_node(std::move(node));
  }
  return std::make_unique<VersionSystem>("algo-a", cfg, rt, std::move(fleet));
}

}  // namespace snowkit

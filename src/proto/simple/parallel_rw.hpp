// Shared node implementations for the `simple` and `naive` protocols.
//
// Both protocols have the same wire behaviour — one parallel round of
// per-object requests — and differ only in the guarantee they CLAIM:
// `simple` claims nothing, while `naive` presents itself as a READ/WRITE
// transaction system.  The SNOW Theorem's content is precisely that the
// naive claim is untenable: no scheduling discipline can make this
// latency-optimal protocol strictly serializable once there are concurrent
// WRITEs (the fig1a bench exhibits concrete fractured reads).
#pragma once

#include <map>
#include <optional>

#include "common/assert.hpp"
#include "proto/api.hpp"

namespace snowkit::detail {

class ParallelServer final : public Node {
 public:
  void on_message(NodeId from, const Message& m) override {
    if (const auto* w = std::get_if<SimpleWriteReq>(&m.payload)) {
      values_[w->obj] = w->value;
      send(from, Message{m.txn, SimpleWriteAck{w->obj}});
      return;
    }
    if (const auto* r = std::get_if<SimpleReadReq>(&m.payload)) {
      const auto it = values_.find(r->obj);
      const Value v = it == values_.end() ? kInitialValue : it->second;
      send(from, Message{m.txn, SimpleReadResp{r->obj, v}});
      return;
    }
    SNOW_UNREACHABLE("parallel server got unexpected payload");
  }

 private:
  std::map<ObjectId, Value> values_;  ///< latest value per hosted object.
};

class ParallelReader final : public Node, public ReadClientApi {
 public:
  ParallelReader(HistoryRecorder& rec, const Placement& place) : rec_(rec), place_(place) {}

  void read(std::vector<ObjectId> objs, ReadCallback cb) override {
    SNOW_CHECK_MSG(!pending_, "reader " << id() << " already has a READ in flight");
    SNOW_CHECK(!objs.empty());
    const TxnId txn = rec_.begin_read(id(), objs);
    pending_.emplace();
    pending_->txn = txn;
    pending_->objs = objs;
    pending_->cb = std::move(cb);
    for (ObjectId obj : objs) send(place_.server_node(obj), Message{txn, SimpleReadReq{obj}});
  }

  NodeId node_id() const override { return id(); }
  std::size_t num_objects() const override { return place_.num_objects(); }

  void on_message(NodeId, const Message& m) override {
    const auto* r = std::get_if<SimpleReadResp>(&m.payload);
    SNOW_CHECK(r != nullptr && pending_ && pending_->txn == m.txn);
    pending_->got[r->obj] = r->value;
    if (pending_->got.size() != pending_->objs.size()) return;
    ReadResult result;
    result.txn = pending_->txn;
    for (ObjectId obj : pending_->objs) result.values.emplace_back(obj, pending_->got.at(obj));
    rec_.finish_read(pending_->txn, result.values, kInvalidTag, /*rounds=*/1, /*max_versions=*/1);
    auto cb = std::move(pending_->cb);
    pending_.reset();
    cb(result);
  }

 private:
  struct Pending {
    TxnId txn{kInvalidTxn};
    std::vector<ObjectId> objs;
    std::map<ObjectId, Value> got;
    ReadCallback cb;
  };

  HistoryRecorder& rec_;
  Placement place_;
  std::optional<Pending> pending_;
};

class ParallelWriter final : public Node, public WriteClientApi {
 public:
  ParallelWriter(HistoryRecorder& rec, const Placement& place) : rec_(rec), place_(place) {}

  void write(std::vector<std::pair<ObjectId, Value>> writes, WriteCallback cb) override {
    SNOW_CHECK_MSG(!pending_, "writer " << id() << " already has a WRITE in flight");
    SNOW_CHECK(!writes.empty());
    const TxnId txn = rec_.begin_write(id(), writes);
    pending_.emplace();
    pending_->txn = txn;
    pending_->await = writes.size();
    pending_->cb = std::move(cb);
    for (const auto& [obj, value] : writes) {
      send(place_.server_node(obj), Message{txn, SimpleWriteReq{obj, value}});
    }
  }

  NodeId node_id() const override { return id(); }
  std::size_t num_objects() const override { return place_.num_objects(); }

  void on_message(NodeId, const Message& m) override {
    SNOW_CHECK(std::holds_alternative<SimpleWriteAck>(m.payload));
    SNOW_CHECK(pending_ && pending_->txn == m.txn);
    if (--pending_->await != 0) return;
    rec_.finish_write(pending_->txn, kInvalidTag, /*rounds=*/1);
    auto cb = std::move(pending_->cb);
    const WriteResult result{pending_->txn};
    pending_.reset();
    cb(result);
  }

 private:
  struct Pending {
    TxnId txn{kInvalidTxn};
    std::size_t await{0};
    WriteCallback cb;
  };

  HistoryRecorder& rec_;
  Placement place_;
  std::optional<Pending> pending_;
};

/// Assembles servers/readers/writers for `simple` and `naive`.
class ParallelSystem final : public ProtocolSystem {
 public:
  ParallelSystem(std::string name, const SystemConfig& cfg, Runtime& rt,
                 std::vector<ParallelReader*> readers, std::vector<ParallelWriter*> writers)
      : ProtocolSystem(std::move(name), cfg, rt), readers_(std::move(readers)),
        writers_(std::move(writers)) {}

  std::size_t num_readers() const override { return readers_.size(); }
  std::size_t num_writers() const override { return writers_.size(); }
  ReadClientApi& reader(std::size_t i) override { return *readers_.at(i); }
  WriteClientApi& writer(std::size_t i) override { return *writers_.at(i); }

 private:
  std::vector<ParallelReader*> readers_;
  std::vector<ParallelWriter*> writers_;
};

std::unique_ptr<ProtocolSystem> build_parallel(std::string name, Runtime& rt, HistoryRecorder& rec,
                                               const SystemConfig& cfg);

}  // namespace snowkit::detail

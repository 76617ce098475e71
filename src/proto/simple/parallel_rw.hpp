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

#include <functional>
#include <map>
#include <memory>
#include <string>

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
    // Replies, other protocols' requests: nothing a peer sends may abort us.
    SNOW_WARN("parallel server dropping " << payload_name(m.payload) << " from node " << from
                                          << ": not a read or write request");
  }

 private:
  std::map<ObjectId, Value> values_;  ///< latest value per hosted object.
};

class ParallelReader final : public ReadClient {
 public:
  ParallelReader(HistoryRecorder& rec, const Placement& place) : ReadClient(rec, place) {}

 private:
  void attempt() override {
    got_.clear();
    for (ObjectId obj : objs()) send(server_of(obj), Message{txn(), SimpleReadReq{obj}});
  }

  bool on_reply(NodeId, const Message& m) override {
    const auto* r = std::get_if<SimpleReadResp>(&m.payload);
    if (r == nullptr) return false;
    got_[r->obj] = r->value;
    if (got_.size() < objs().size()) return true;
    std::vector<std::pair<ObjectId, Value>> values;
    for (ObjectId obj : objs()) values.emplace_back(obj, got_.at(obj));
    finish(std::move(values), kInvalidTag, /*rounds=*/1, /*max_versions=*/1);
    return true;
  }

  std::map<ObjectId, Value> got_;  ///< the READ in flight's values.
};

class ParallelWriter final : public WriteClient {
 public:
  ParallelWriter(HistoryRecorder& rec, const Placement& place) : WriteClient(rec, place) {}

 private:
  void start() override {
    await_ = writes().size();
    for (const auto& [obj, value] : writes()) {
      send(server_of(obj), Message{txn(), SimpleWriteReq{obj, value}});
    }
  }

  bool on_reply(NodeId, const Message& m) override {
    if (!std::holds_alternative<SimpleWriteAck>(m.payload)) return false;
    if (--await_ == 0) finish(kInvalidTag, /*rounds=*/1);
    return true;
  }

  std::size_t await_{0};  ///< acks the WRITE in flight still owes.
};

/// Assembles servers (made by `make_server`), readers and writers for
/// `simple`, `naive` and the broken-stale stub.
std::unique_ptr<ProtocolSystem> build_parallel(
    std::string name, Runtime& rt, HistoryRecorder& rec, const SystemConfig& cfg,
    const std::function<std::unique_ptr<Node>()>& make_server);

}  // namespace snowkit::detail

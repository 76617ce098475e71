#include "proto/blocking/blocking.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "common/assert.hpp"
#include "core/registry.hpp"

namespace snowkit {
namespace {

/// Lock-manager server.  One independent lock table entry per hosted object;
/// grants are FIFO per object: a request waits iff an earlier conflicting
/// request holds or awaits that object's lock, so writers are never starved
/// by a stream of readers.  Each lock records its holders, and only a holder
/// may release it: an unlock from any other (client, txn) is dropped.
class ServerL final : public Node {
 public:
  void on_message(NodeId from, const Message& m) override {
    const Owner sender{from, m.txn};
    if (const auto* lr = std::get_if<LockReq>(&m.payload)) {
      LockState& ls = locks_[lr->obj];
      ls.waiters.push_back(Waiter{sender, lr->exclusive});
      pump(lr->obj, ls);
      return;
    }
    if (const auto* wu = std::get_if<WriteUnlockReq>(&m.payload)) {
      const auto it = locks_.find(wu->obj);
      if (it == locks_.end() || it->second.exclusive != sender) {
        drop(from, m, "write-unlock without exclusive lock");
        return;
      }
      LockState& ls = it->second;
      ls.value = wu->value;
      ls.exclusive.reset();
      send(from, Message{m.txn, UnlockAck{wu->obj}});
      pump(wu->obj, ls);
      return;
    }
    if (const auto* u = std::get_if<UnlockReq>(&m.payload)) {
      // A READ locks each of its objects once, so a holder appears once.
      const auto it = locks_.find(u->obj);
      if (it == locks_.end() || std::erase(it->second.shared, sender) == 0) {
        drop(from, m, "shared unlock without shared lock");
        return;
      }
      pump(u->obj, it->second);
      return;
    }
    // Replies, other protocols' requests: nothing a peer sends may abort us.
    drop(from, m, "not a lock-server request");
  }

 private:
  static void drop(NodeId from, const Message& m, const char* why) {
    SNOW_WARN("lock server dropping " << payload_name(m.payload) << " from node " << from
                                      << ": " << why);
  }

  /// One transaction of one client: who holds or awaits a lock.
  struct Owner {
    NodeId client{kInvalidNode};
    TxnId txn{kInvalidTxn};
    bool operator==(const Owner&) const = default;
  };

  struct Waiter {
    Owner owner;
    bool exclusive{false};
  };

  struct LockState {
    Value value = kInitialValue;
    std::optional<Owner> exclusive;  ///< the writer holding the lock, if any.
    std::vector<Owner> shared;       ///< the readers holding the lock.
    std::deque<Waiter> waiters;
  };

  void pump(ObjectId obj, LockState& ls) {
    while (!ls.waiters.empty()) {
      const Waiter& w = ls.waiters.front();
      if (w.exclusive) {
        if (ls.exclusive || !ls.shared.empty()) break;
        ls.exclusive = w.owner;
      } else {
        if (ls.exclusive) break;
        ls.shared.push_back(w.owner);
      }
      send(w.owner.client, Message{w.owner.txn, LockGrant{obj, ls.value}});
      ls.waiters.pop_front();
    }
  }

  std::map<ObjectId, LockState> locks_;
};

class ReaderL final : public ReadClient {
 public:
  ReaderL(HistoryRecorder& rec, const Placement& place) : ReadClient(rec, place) {}

 private:
  void order(std::vector<ObjectId>& objs) override { std::sort(objs.begin(), objs.end()); }

  void attempt() override {
    values_.clear();
    request_next_lock();
  }

  bool on_reply(NodeId, const Message& m) override {
    const auto* g = std::get_if<LockGrant>(&m.payload);
    if (g == nullptr) return false;
    values_.emplace_back(g->obj, g->value);
    if (values_.size() < objs().size()) {
      request_next_lock();
      return true;
    }
    // All shared locks held: this is the serialization point.  Release and
    // respond; releases need no acks.
    for (ObjectId obj : objs()) send(server_of(obj), Message{txn(), UnlockReq{obj}});
    finish(values_, kInvalidTag, static_cast<int>(objs().size()), /*max_versions=*/1);
    return true;
  }

  void request_next_lock() {
    const ObjectId obj = objs()[values_.size()];
    send(server_of(obj), Message{txn(), LockReq{obj, /*exclusive=*/false}});
  }

  std::vector<std::pair<ObjectId, Value>> values_;  ///< the READ in flight's grants.
};

class WriterL final : public WriteClient {
 public:
  WriterL(HistoryRecorder& rec, const Placement& place) : WriteClient(rec, place) {}

 private:
  void order(std::vector<std::pair<ObjectId, Value>>& writes) override {
    std::sort(writes.begin(), writes.end());
  }

  void start() override {
    locks_held_ = 0;
    apply_acks_ = 0;
    request_next_lock();
  }

  bool on_reply(NodeId, const Message& m) override {
    if (std::holds_alternative<LockGrant>(m.payload)) {
      if (++locks_held_ < writes().size()) {
        request_next_lock();
        return true;
      }
      // All exclusive locks held: apply and release in one parallel round.
      for (const auto& [obj, value] : writes()) {
        send(server_of(obj), Message{txn(), WriteUnlockReq{obj, value}});
      }
      return true;
    }
    if (std::holds_alternative<UnlockAck>(m.payload)) {
      if (++apply_acks_ == writes().size()) {
        finish(kInvalidTag, static_cast<int>(writes().size()) + 1);
      }
      return true;
    }
    return false;
  }

  void request_next_lock() {
    const ObjectId obj = writes()[locks_held_].first;
    send(server_of(obj), Message{txn(), LockReq{obj, /*exclusive=*/true}});
  }

  // The WRITE in flight.
  std::size_t locks_held_{0};
  std::size_t apply_acks_{0};
};

const ProtocolRegistration kRegisterBlocking{
    ProtocolTraits{
        .name = "blocking-2pl",
        .summary = "conservative 2PL comparator: strong guarantees, blocking multi-round reads",
        .claims_strict_serializability = true,
        .provides_tags = false,
        .snow_s = true,
        .snow_n = false,  // reads queue behind writers by design
        .snow_o = false,
        .snow_w = true,
        .mwmr = true,
    },
    [](Runtime& rt, HistoryRecorder& rec, const SystemConfig& cfg, const BuildOptions&) {
      return build_blocking(rt, rec, cfg);
    }};

}  // namespace

std::unique_ptr<ProtocolSystem> build_blocking(Runtime& rt, HistoryRecorder& rec,
                                               const SystemConfig& cfg) {
  cfg.validate();
  const Placement place(cfg);
  rec.attach_runtime(&rt);
  for (std::size_t i = 0; i < place.num_servers(); ++i) {
    const NodeId id = rt.add_node(std::make_unique<ServerL>());
    SNOW_CHECK(id == i);
  }
  auto readers = add_clients<ReadClient>(rt, cfg.num_readers,
                                         [&] { return std::make_unique<ReaderL>(rec, place); });
  auto writers = add_clients<WriteClient>(rt, cfg.num_writers,
                                          [&] { return std::make_unique<WriterL>(rec, place); });
  return std::make_unique<ProtocolSystem>("blocking-2pl", cfg, rt, std::move(readers),
                                          std::move(writers));
}

}  // namespace snowkit

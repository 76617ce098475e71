#include "proto/api.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "common/assert.hpp"

namespace snowkit {

void SystemConfig::validate() const {
  if (num_objects == 0) {
    throw std::invalid_argument("SystemConfig: num_objects must be >= 1 (a system with no "
                                "objects has nothing to read or write)");
  }
  if (num_readers == 0 && num_writers == 0) {
    throw std::invalid_argument("SystemConfig: at least one client is required "
                                "(num_readers + num_writers >= 1)");
  }
  if (server_count() == 0) {
    throw std::invalid_argument("SystemConfig: num_servers must be >= 1 (use 0 for the "
                                "one-server-per-object default)");
  }
}

std::vector<ObjectId> Placement::objects_on(std::size_t shard) const {
  std::vector<ObjectId> out;
  for (std::size_t i = 0; i < num_objects_; ++i) {
    const auto obj = static_cast<ObjectId>(i);
    if (shard_of(obj) == shard) out.push_back(obj);
  }
  return out;
}

TxnRequest read_txn(std::vector<ObjectId> objs) {
  TxnRequest req;
  req.reads = std::move(objs);
  return req;
}

TxnRequest write_txn(std::vector<std::pair<ObjectId, Value>> writes) {
  TxnRequest req;
  req.writes = std::move(writes);
  return req;
}

void check_txn_objects(const TxnRequest& req, std::size_t num_objects) {
  if (req.reads.empty() && req.writes.empty()) {
    throw std::invalid_argument("a READ or WRITE must name at least one object");
  }
  std::vector<ObjectId> objs = req.reads;
  for (const auto& [obj, value] : req.writes) objs.push_back(obj);
  const char* what = req.is_read() ? "READ" : "WRITE";
  for (ObjectId obj : objs) {
    if (obj >= num_objects) {
      throw std::invalid_argument(std::string(what) + " names object " + std::to_string(obj) +
                                  ", outside the " + std::to_string(num_objects) + " objects");
    }
  }
  std::sort(objs.begin(), objs.end());
  const auto dup = std::adjacent_find(objs.begin(), objs.end());
  if (dup != objs.end()) {
    throw std::invalid_argument(std::string(what) + " names object " + std::to_string(*dup) +
                                " more than once");
  }
}

// --- client nodes -------------------------------------------------------------

ClientNode::ClientNode(HistoryRecorder& rec, const Placement& place, bool replicated,
                       const char* kind)
    : rec_(rec), place_(place), replicated_(replicated), kind_(kind),
      routes_(place.num_servers()) {}

void ClientNode::on_message(NodeId from, const Message& m) {
  if (const auto* tn = std::get_if<TakeoverNotice>(&m.payload)) {
    if (!replicated_) {
      drop(LogLevel::Warn, from, m, "this fleet has no backups");
    } else if (routes_.update(tn->shard, tn->node, tn->epoch)) {
      on_takeover(*tn);
    }
    return;
  }
  if (on_peer(from, m)) return;
  if (const auto* rv = std::get_if<ReadValsBatchResp>(&m.payload); rv && rv->tag_arr) {
    // The tag array may complete the READ, so the batch passes the txn
    // filter again after it.
    const auto as_payload = [](const auto& reply) { return Payload{reply}; };
    deliver(from, Message{m.txn, std::visit(as_payload, *rv->tag_arr)});
  }
  deliver(from, m);
}

void ClientNode::deliver(NodeId from, const Message& m) {
  if (!in_flight() || m.txn != txn_) {
    drop(m.txn <= newest_txn_ ? LogLevel::Debug : LogLevel::Warn, from, m,
         in_flight() ? "it names another transaction" : "no transaction is in flight");
    return;
  }
  if (!on_reply(from, m)) drop(LogLevel::Warn, from, m, "it is not a reply this protocol expects");
}

void ClientNode::drop(LogLevel level, NodeId from, const Message& m, const char* why) const {
  SNOW_LOG(level, kind_ << " client " << id() << " dropping " << payload_name(m.payload)
                        << " (txn " << m.txn << ") from node " << from << ": " << why);
}

ReadClient::ReadClient(HistoryRecorder& rec, const Placement& place, bool replicated,
                       bool may_retry)
    : ClientNode(rec, place, replicated, "READ"), may_retry_(may_retry) {}

void ReadClient::read(std::vector<ObjectId> objs, TxnCallback cb) {
  SNOW_CHECK_MSG(!in_flight(), "reader " << id() << " already has a READ in flight");
  SNOW_CHECK(!objs.empty());
  order(objs);
  registered_.reset();  // this READ's registration replaces the last one
  begin(rec().begin_read(id(), objs));
  objs_ = std::move(objs);
  cb_ = std::move(cb);
  attempts_ = 1;
  attempt();
}

std::size_t ReadClient::send_tag_arr_round(std::size_t coor_shard, GetTagArrReq gt,
                                           std::map<std::size_t, ReadValsBatchReq> batches) {
  const auto coor = batches.find(coor_shard);
  if (coor == batches.end()) {
    send(route(coor_shard), Message{txn(), std::move(gt)});
  } else {
    coor->second.tag_arr = std::move(gt);
  }
  return send_by_shard(std::move(batches));
}

void ReadClient::release_registration(std::size_t coor_shard) {
  registered_ = Registration{coor_shard, txn(), rt().now_ns()};
  if (linger_armed_) return;  // the pending timer re-arms for this READ
  linger_armed_ = true;
  rt().post_after(id(), kReadDoneLinger, [this] { linger_expired(); });
}

void ReadClient::linger_expired() {
  linger_armed_ = false;
  if (!registered_) return;  // a READ began since: its registration released the floor
  const TimeNs due = registered_->done_at + kReadDoneLinger;
  const TimeNs now = rt().now_ns();
  if (now < due) {
    linger_armed_ = true;
    rt().post_after(id(), due - now, [this] { linger_expired(); });
    return;
  }
  // Fire-and-forget and keyed by sender node, so it carries no txn.
  send(route(registered_->coor_shard), Message{kInvalidTxn, ReadDoneReq{registered_->txn}});
  registered_.reset();
}

void ReadClient::retry(const char* why) {
  SNOW_CHECK_MSG(may_retry_, "reader " << id() << ": " << why << ", and no retry is legal here");
  if (attempts_ >= kMaxReadAttempts) return;  // given up: the READ stays unanswered
  ++attempts_;
  attempt();
}

void ReadClient::finish(std::vector<std::pair<ObjectId, Value>> values, Tag tag, int rounds,
                        int max_versions) {
  const TxnResult result{txn(), /*is_read=*/true, std::move(values)};
  rec().finish_read(result.txn, result.values, tag, rounds, max_versions);
  TxnCallback cb = std::move(cb_);
  end();
  cb(result);
}

WriteClient::WriteClient(HistoryRecorder& rec, const Placement& place, bool replicated)
    : ClientNode(rec, place, replicated, "WRITE") {}

void WriteClient::write(std::vector<std::pair<ObjectId, Value>> writes, TxnCallback cb) {
  SNOW_CHECK_MSG(!in_flight(), "writer " << id() << " already has a WRITE in flight");
  SNOW_CHECK(!writes.empty());
  order(writes);
  begin(rec().begin_write(id(), writes));
  writes_ = std::move(writes);
  cb_ = std::move(cb);
  start();
}

void WriteClient::finish(Tag tag, int rounds) {
  rec().finish_write(txn(), tag, rounds);
  const TxnResult result{txn(), /*is_read=*/false, {}};
  TxnCallback cb = std::move(cb_);
  end();
  cb(result);
}

// --- unified-client hub -------------------------------------------------------

namespace {

/// FIFO gate in front of one underlying protocol client (a reader or a
/// writer node).  The protocol clients enforce the paper's well-formedness
/// rule — at most one outstanding transaction per client — with a hard
/// check; the slot queues excess submissions instead of tripping it, which
/// is exactly the backlog behaviour an open-loop driver wants.
struct ClientSlot {
  struct Item {
    TxnRequest req;
    TxnCallback cb;
  };

  std::mutex mu;
  bool busy{false};
  std::deque<Item> queue;
};

}  // namespace

struct ProtocolSystem::ClientHub {
  struct UnifiedClient final : public TxnClient {
    ClientHub* hub{nullptr};
    ClientSlot* read_slot{nullptr};    // null when the system has no readers
    ClientSlot* write_slot{nullptr};   // null when the system has no writers
    ReadClient* reader{nullptr};
    WriteClient* writer{nullptr};

    void submit(TxnRequest req, TxnCallback cb) override {
      SNOW_CHECK_MSG(req.reads.empty() != req.writes.empty(),
                     "TxnRequest must carry exactly one of a read-set or a write-set");
      ClientSlot* slot = req.is_read() ? read_slot : write_slot;
      SNOW_CHECK_MSG(slot != nullptr, "protocol system '" << hub->sys->name() << "' has no "
                     << (req.is_read() ? "read" : "write") << " clients for this request");
      check_txn_objects(req, hub->sys->num_objects());
      {
        std::lock_guard<std::mutex> lock(slot->mu);
        if (slot->busy) {
          slot->queue.push_back({std::move(req), std::move(cb)});
          return;
        }
        slot->busy = true;
      }
      fire(slot, std::move(req), std::move(cb));
    }

    void fire(ClientSlot* slot, TxnRequest req, TxnCallback cb) {
      Runtime& rt = hub->sys->runtime();
      TxnCallback done = [this, slot, cb = std::move(cb)](const TxnResult& r) {
        finish(slot, r, cb);
      };
      if (req.is_read()) {
        invoke_read(rt, *reader, std::move(req.reads), std::move(done));
      } else {
        invoke_write(rt, *writer, std::move(req.writes), std::move(done));
      }
    }

    void finish(ClientSlot* slot, const TxnResult& result, const TxnCallback& cb) {
      // Release the slot BEFORE the callback runs so a closed-loop driver's
      // chained submit fires immediately instead of queueing behind itself.
      std::optional<ClientSlot::Item> next;
      {
        std::lock_guard<std::mutex> lock(slot->mu);
        if (slot->queue.empty()) {
          slot->busy = false;
        } else {
          next.emplace(std::move(slot->queue.front()));
          slot->queue.pop_front();
        }
      }
      if (cb) cb(result);
      if (next) fire(slot, std::move(next->req), std::move(next->cb));
    }
  };

  ProtocolSystem* sys{nullptr};
  std::vector<std::unique_ptr<ClientSlot>> read_slots;
  std::vector<std::unique_ptr<ClientSlot>> write_slots;
  std::vector<std::unique_ptr<UnifiedClient>> clients;
};

ProtocolSystem::ProtocolSystem(std::string name, const SystemConfig& cfg, Runtime& rt,
                               std::vector<ReadClient*> readers, std::vector<WriteClient*> writers)
    : name_(std::move(name)), cfg_(cfg), placement_(cfg), rt_(rt), readers_(std::move(readers)),
      writers_(std::move(writers)) {}

ProtocolSystem::~ProtocolSystem() = default;

std::size_t ProtocolSystem::num_clients() const {
  return std::max(num_readers(), num_writers());
}

TxnClient& ProtocolSystem::client(std::size_t i) {
  std::lock_guard<std::mutex> lock(hub_mu_);
  if (!hub_) {
    const std::size_t readers = num_readers();
    const std::size_t writers = num_writers();
    SNOW_CHECK_MSG(readers + writers > 0, "protocol system '" << name_ << "' has no clients");
    auto hub = std::make_unique<ClientHub>();
    hub->sys = this;
    for (std::size_t r = 0; r < readers; ++r) hub->read_slots.push_back(std::make_unique<ClientSlot>());
    for (std::size_t w = 0; w < writers; ++w) hub->write_slots.push_back(std::make_unique<ClientSlot>());
    const std::size_t n = std::max(readers, writers);
    for (std::size_t c = 0; c < n; ++c) {
      auto uc = std::make_unique<ClientHub::UnifiedClient>();
      uc->hub = hub.get();
      if (readers > 0) {
        uc->read_slot = hub->read_slots[c % readers].get();
        uc->reader = &reader(c % readers);
      }
      if (writers > 0) {
        uc->write_slot = hub->write_slots[c % writers].get();
        uc->writer = &writer(c % writers);
      }
      hub->clients.push_back(std::move(uc));
    }
    hub_ = std::move(hub);
  }
  SNOW_CHECK_MSG(i < hub_->clients.size(),
                 "client index " << i << " out of range (num_clients = " << hub_->clients.size()
                                 << ")");
  return *hub_->clients[i];
}

void invoke_read(Runtime& rt, ReadClient& client, std::vector<ObjectId> objs, TxnCallback cb) {
  check_txn_objects(read_txn(objs), client.num_objects());
  rt.post(client.node_id(), [&client, objs = std::move(objs), cb = std::move(cb)]() mutable {
    client.read(std::move(objs), std::move(cb));
  });
}

void invoke_write(Runtime& rt, WriteClient& client,
                  std::vector<std::pair<ObjectId, Value>> writes, TxnCallback cb) {
  check_txn_objects(write_txn(writes), client.num_objects());
  rt.post(client.node_id(), [&client, writes = std::move(writes), cb = std::move(cb)]() mutable {
    client.write(std::move(writes), std::move(cb));
  });
}

std::vector<ObjectId> all_objects(std::size_t k) {
  std::vector<ObjectId> objs(k);
  for (std::size_t i = 0; i < k; ++i) objs[i] = static_cast<ObjectId>(i);
  return objs;
}

std::vector<std::pair<ObjectId, Value>> write_all(std::size_t k, Value base) {
  std::vector<std::pair<ObjectId, Value>> w;
  w.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    w.emplace_back(static_cast<ObjectId>(i), base + static_cast<Value>(i));
  }
  return w;
}

}  // namespace snowkit

#include "history/history.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace snowkit {

const TxnRecord* History::find(TxnId id) const {
  for (const auto& t : txns) {
    if (t.id == id) return &t;
  }
  return nullptr;
}

std::size_t History::completed_reads() const {
  return static_cast<std::size_t>(std::count_if(
      txns.begin(), txns.end(), [](const TxnRecord& t) { return t.is_read && t.complete; }));
}

std::size_t History::completed_writes() const {
  return static_cast<std::size_t>(std::count_if(
      txns.begin(), txns.end(), [](const TxnRecord& t) { return !t.is_read && t.complete; }));
}

TxnId HistoryRecorder::begin_read(NodeId client, const std::vector<ObjectId>& objs) {
  const TxnId id = next_id_.fetch_add(1, std::memory_order_relaxed);
  TxnRecord rec;
  rec.id = id;
  rec.client = client;
  rec.is_read = true;
  rec.invoke_ns = rt_ ? rt_->now_ns() : 0;
  rec.invoke_order = next_order_.fetch_add(1, std::memory_order_relaxed);
  rec.reads.reserve(objs.size());
  for (ObjectId o : objs) rec.reads.emplace_back(o, kInitialValue);
  {
    std::lock_guard<std::mutex> lock(mu_);
    txns_.push_back(std::move(rec));
  }
  if (rt_) rt_->note_invoke(client, id);
  return id;
}

TxnId HistoryRecorder::begin_write(NodeId client,
                                   const std::vector<std::pair<ObjectId, Value>>& writes) {
  const TxnId id = next_id_.fetch_add(1, std::memory_order_relaxed);
  TxnRecord rec;
  rec.id = id;
  rec.client = client;
  rec.is_read = false;
  rec.invoke_ns = rt_ ? rt_->now_ns() : 0;
  rec.invoke_order = next_order_.fetch_add(1, std::memory_order_relaxed);
  rec.writes = writes;
  {
    std::lock_guard<std::mutex> lock(mu_);
    txns_.push_back(std::move(rec));
  }
  if (rt_) rt_->note_invoke(client, id);
  return id;
}

TxnRecord& HistoryRecorder::locate(TxnId id) {
  // Newest first: a transaction finishing is almost always among the last
  // few begun, so the search stays short however long the history grows.
  // Ids are allocated outside the lock, so txns_ is not sorted by id.
  const auto it = std::find_if(txns_.rbegin(), txns_.rend(),
                               [id](const TxnRecord& t) { return t.id == id; });
  SNOW_CHECK_MSG(it != txns_.rend(), "unknown txn id " << id << " in recorder");
  return *it;
}

void HistoryRecorder::finish_read(TxnId id, std::vector<std::pair<ObjectId, Value>> reads, Tag tag,
                                  int rounds, int max_versions) {
  NodeId client = kInvalidNode;
  {
    std::lock_guard<std::mutex> lock(mu_);
    TxnRecord& rec = locate(id);
    SNOW_CHECK_MSG(rec.is_read && !rec.complete, "finish_read on txn " << id);
    rec.reads = std::move(reads);
    rec.tag = tag;
    rec.rounds = rounds;
    rec.max_versions = max_versions;
    rec.respond_ns = rt_ ? rt_->now_ns() : 0;
    rec.respond_order = next_order_.fetch_add(1, std::memory_order_relaxed);
    rec.complete = true;
    client = rec.client;
  }
  if (rt_) rt_->note_respond(client, id);
}

void HistoryRecorder::finish_write(TxnId id, Tag tag, int rounds) {
  NodeId client = kInvalidNode;
  {
    std::lock_guard<std::mutex> lock(mu_);
    TxnRecord& rec = locate(id);
    SNOW_CHECK_MSG(!rec.is_read && !rec.complete, "finish_write on txn " << id);
    rec.tag = tag;
    rec.rounds = rounds;
    rec.respond_ns = rt_ ? rt_->now_ns() : 0;
    rec.respond_order = next_order_.fetch_add(1, std::memory_order_relaxed);
    rec.complete = true;
    client = rec.client;
  }
  if (rt_) rt_->note_respond(client, id);
}

History HistoryRecorder::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  History h;
  h.num_objects = num_objects_;
  h.txns = txns_;
  return h;
}

}  // namespace snowkit

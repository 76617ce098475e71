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
  TxnRecord rec;
  rec.client = client;
  rec.is_read = true;
  rec.invoke_ns = rt_ ? rt_->now_ns() : 0;
  rec.invoke_order = next_order_.fetch_add(1, std::memory_order_relaxed);
  rec.reads.reserve(objs.size());
  for (ObjectId o : objs) rec.reads.emplace_back(o, kInitialValue);
  const TxnId id = record(std::move(rec));
  if (rt_) rt_->note_invoke(client, id);
  return id;
}

TxnId HistoryRecorder::begin_write(NodeId client,
                                   const std::vector<std::pair<ObjectId, Value>>& writes) {
  TxnRecord rec;
  rec.client = client;
  rec.is_read = false;
  rec.invoke_ns = rt_ ? rt_->now_ns() : 0;
  rec.invoke_order = next_order_.fetch_add(1, std::memory_order_relaxed);
  rec.writes = writes;
  const TxnId id = record(std::move(rec));
  if (rt_) rt_->note_invoke(client, id);
  return id;
}

TxnId HistoryRecorder::record(TxnRecord rec) {
  std::lock_guard<std::mutex> lock(mu_);
  // Allocated under the lock, so txns_ stays sorted by id; next_id() may
  // leave gaps, which the binary search in locate() does not mind.
  rec.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  txns_.push_back(std::move(rec));
  return txns_.back().id;
}

TxnRecord& HistoryRecorder::locate(TxnId id) {
  const auto it = std::lower_bound(txns_.begin(), txns_.end(), id,
                                   [](const TxnRecord& t, TxnId want) { return t.id < want; });
  SNOW_CHECK_MSG(it != txns_.end() && it->id == id, "unknown txn id " << id << " in recorder");
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

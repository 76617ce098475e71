#include "proto/version_store.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "metrics/gc_stats.hpp"
#include "proto/api.hpp"
#include "proto/replica.hpp"
#include "runtime/runtime.hpp"

namespace snowkit {

// --- VersionStore ------------------------------------------------------------

VersionStore::VersionStore(Value initial) {
  vals_.emplace(kInitialKey, Slot{initial, 0});
  by_pos_.emplace(0, kInitialKey);
  GcCounters::global().on_insert();
}

VersionStore::~VersionStore() {
  GcCounters::global().on_release(vals_.size());
}

void VersionStore::insert(const WriteKey& key, Value value) {
  auto [it, inserted] = vals_.try_emplace(key, Slot{value, kInvalidTag});
  if (!inserted) {
    it->second.value = value;
    return;
  }
  GcCounters::global().on_insert();
}

void VersionStore::finalize(const WriteKey& key, Tag position) {
  auto it = vals_.find(key);
  SNOW_CHECK_MSG(it != vals_.end(), "finalize for absent version " << to_string(key));
  if (it->second.position != kInvalidTag) return;  // duplicate notice
  it->second.position = position;
  const auto [pit, fresh] = by_pos_.emplace(position, key);
  SNOW_CHECK_MSG(fresh || pit->second == key,
                 "List position " << position << " finalized twice with different keys");
  prune_();
}

void VersionStore::advance_watermark(Tag w) {
  if (w <= watermark_) return;  // monotone
  watermark_ = w;
  GcCounters::global().on_watermark(w);
  prune_();
}

void VersionStore::prune_() {
  // The anchor is the newest finalized version at or below the watermark;
  // position 0 (the initial version) is always finalized, so it exists.
  auto anchor = by_pos_.upper_bound(watermark_);
  SNOW_CHECK_MSG(anchor != by_pos_.begin(), "no finalized version at or below watermark");
  --anchor;
  std::uint64_t dropped = 0;
  for (auto it = by_pos_.begin(); it != anchor;) {
    vals_.erase(it->second);
    it = by_pos_.erase(it);
    ++dropped;
  }
  if (dropped != 0) {
    pruned_ += dropped;
    GcCounters::global().on_prune(dropped);
  }
}

std::vector<Version> VersionStore::all() const {
  std::vector<Version> out;
  out.reserve(vals_.size());
  for (const auto& [k, slot] : vals_) out.push_back(Version{k, slot.value});
  return out;
}

bool VersionStore::erase(const WriteKey& key) {
  auto it = vals_.find(key);
  if (it == vals_.end()) return false;
  if (it->second.position != kInvalidTag) by_pos_.erase(it->second.position);
  vals_.erase(it);
  GcCounters::global().on_release(1);
  return true;
}

// --- CoorList ----------------------------------------------------------------

CoorList::CoorList(std::size_t num_objects) : k_(num_objects) {
  history_.resize(k_);
  latest_.assign(k_, kInitialKey);
  for (auto& h : history_) h.push_back(ListedKey{0, kInitialKey});
}

Tag CoorList::push(const WriteKey& key, const std::vector<ObjectId>& objs) {
  const Tag pos = count_++;
  for (ObjectId obj : objs) {
    SNOW_CHECK_MSG(obj < k_, "List push names object " << obj << " >= k = " << k_);
    std::deque<ListedKey>& h = history_[obj];
    h.push_back(ListedKey{pos, key});
    if (h.size() == 2) trimmable_.push_back(obj);
    latest_[obj] = key;
  }
  return pos;
}

Tag CoorList::push(const WriteKey& key, const std::vector<std::uint8_t>& mask) {
  SNOW_CHECK(mask.size() == k_);
  std::vector<ObjectId> objs;
  for (std::size_t i = 0; i < k_; ++i) {
    if (mask[i] != 0) objs.push_back(static_cast<ObjectId>(i));
  }
  return push(key, objs);
}

void CoorList::finalize(Tag position) {
  if (position <= max_finalized_) return;
  max_finalized_ = position;
  advance_();
}

Tag CoorList::register_reader(NodeId reader, TxnId txn) {
  const Tag floor = max_finalized_;
  floors_[reader] = ReaderSlot{txn, floor};
  return floor;
}

void CoorList::reader_done(NodeId reader, TxnId txn) {
  auto it = floors_.find(reader);
  if (it == floors_.end() || it->second.txn > txn) return;  // stale notice
  floors_.erase(it);
  advance_();
}

void CoorList::advance_() {
  Tag w = max_finalized_;
  for (const auto& [reader, slot] : floors_) w = std::min(w, slot.floor);
  if (w <= watermark_) return;
  watermark_ = w;
  GcCounters::global().on_watermark(w);
  for (std::size_t i = 0; i < trimmable_.size();) {
    // Keep the newest entry at or below w (the anchor) plus everything above.
    std::deque<ListedKey>& h = history_[trimmable_[i]];
    while (h.size() >= 2 && h[1].position <= w) h.pop_front();
    if (h.size() >= 2) {
      ++i;
    } else {
      trimmable_[i] = trimmable_.back();
      trimmable_.pop_back();
    }
  }
}

bool CoorList::admits(NodeId from, const UpdateCoorReq& uc) const {
  if (uc.objs.empty()) {
    SNOW_WARN("dropping update-coor from node " << from << ": empty write set");
    return false;
  }
  for (ObjectId obj : uc.objs) {
    if (obj < k_) continue;
    SNOW_WARN("dropping update-coor from node " << from << ": object " << obj
                                                << " outside the " << k_ << " objects");
    return false;
  }
  return true;
}

GetTagArrResp CoorList::tag_arr(const std::vector<ObjectId>& objs, bool with_history) const {
  GetTagArrResp resp;
  // t_r is the newest List position overall so that reads never order
  // before a write that already completed (Lemma 20 P2); per-object
  // version choice still uses the per-object newest entry.
  resp.tag = tag();
  resp.watermark = watermark_;
  resp.entries.reserve(objs.size());
  for (ObjectId obj : objs) {
    if (obj >= k_) continue;
    TagArrEntry& e = resp.entries.emplace_back(TagArrEntry{obj, latest_[obj], {}});
    // The live history: the anchor plus everything above the watermark —
    // all a READ registered at or after this instant can resolve against.
    if (with_history) e.history.assign(history_[obj].begin(), history_[obj].end());
  }
  return resp;
}

namespace {

std::vector<ObjectId> sorted_set(std::vector<ObjectId> objs) {
  std::sort(objs.begin(), objs.end());
  objs.erase(std::unique(objs.begin(), objs.end()), objs.end());
  return objs;
}

}  // namespace

GetTagArrReq tag_arr_req(std::vector<ObjectId> objs) {
  return GetTagArrReq{sorted_set(std::move(objs))};
}

std::vector<ObjectId> write_set(const std::vector<std::pair<ObjectId, Value>>& writes) {
  std::vector<ObjectId> objs;
  objs.reserve(writes.size());
  for (const auto& [obj, value] : writes) objs.push_back(obj);
  return sorted_set(std::move(objs));
}

std::map<std::size_t, WriteValReq> write_vals_by_shard(
    const Placement& place, const WriteKey& key,
    const std::vector<std::pair<ObjectId, Value>>& writes) {
  std::vector<std::pair<ObjectId, Value>> sorted = writes;
  std::sort(sorted.begin(), sorted.end());
  std::map<std::size_t, WriteValReq> by_shard;
  for (const auto& [obj, value] : sorted) {
    WriteValReq& wv = by_shard[place.shard_of(obj)];
    wv.key = key;
    wv.writes.emplace_back(obj, value);
  }
  return by_shard;
}

bool misrouted(NodeId from, const Message& m, bool is_coordinator) {
  if (is_coordinator) return false;
  if (!std::holds_alternative<UpdateCoorReq>(m.payload) &&
      !std::holds_alternative<GetTagArrReq>(m.payload) &&
      !std::holds_alternative<FinalizeCoorReq>(m.payload) &&
      !std::holds_alternative<ReadDoneReq>(m.payload)) {
    return false;
  }
  SNOW_WARN("dropping " << payload_name(m.payload) << " from node " << from
                        << ": this node is not the coordinator");
  return true;
}

std::size_t CoorList::entries() const {
  std::size_t n = 0;
  for (const auto& h : history_) n += h.size();
  return n;
}

void apply_store_record(const ReplRecord& rec, std::map<ObjectId, VersionStore>& stores,
                        std::optional<CoorList>& list) {
  switch (rec.kind) {
    case ReplRecord::kInsert:
      stores[rec.obj].insert(rec.key, rec.value);
      return;
    case ReplRecord::kFinalize: {
      VersionStore& vals = stores[rec.obj];
      vals.finalize(rec.key, rec.position);
      vals.advance_watermark(rec.watermark);
      return;
    }
    case ReplRecord::kCoorFinalize:
      SNOW_CHECK(list.has_value());
      list->finalize(rec.position);
      return;
    default:
      SNOW_UNREACHABLE("unknown ReplRecord kind");
  }
}

namespace {

/// Logs `recs` through `repl` as one batch, or applies them at once without
/// replication; `on_commit` runs when they are committed.
template <typename OnCommit>
void commit_step(std::vector<ReplRecord> recs, std::map<ObjectId, VersionStore>& stores,
                 std::optional<CoorList>& list, Replicator* repl, OnCommit on_commit) {
  if (repl != nullptr) {
    repl->append(std::move(recs), std::move(on_commit));
    return;
  }
  for (const ReplRecord& rec : recs) apply_store_record(rec, stores, list);
  on_commit();
}

constexpr auto kNoAck = [] {};

ReplRecord coor_finalize_record(Tag position) {
  ReplRecord rec;
  rec.kind = ReplRecord::kCoorFinalize;
  rec.position = position;
  return rec;
}

}  // namespace

bool handle_write_path(Runtime& rt, NodeId self, NodeId from, const Message& m, bool gc,
                       std::map<ObjectId, VersionStore>& stores, std::optional<CoorList>& list,
                       Replicator* repl) {
  if (const auto* wv = std::get_if<WriteValReq>(&m.payload)) {
    std::vector<ReplRecord> recs(wv->writes.size());
    WriteValAck ack{wv->key, {}};
    ack.objs.reserve(wv->writes.size());
    for (std::size_t i = 0; i < wv->writes.size(); ++i) {
      recs[i].kind = ReplRecord::kInsert;
      recs[i].obj = wv->writes[i].first;
      recs[i].key = wv->key;
      recs[i].value = wv->writes[i].second;
      ack.objs.push_back(wv->writes[i].first);
    }
    commit_step(std::move(recs), stores, list, repl,
                [&rt, self, from, txn = m.txn, ack = std::move(ack)]() mutable {
                  rt.send(self, from, Message{txn, std::move(ack)});
                });
    return true;
  }
  if (const auto* fin = std::get_if<FinalizeReq>(&m.payload)) {
    if (fin->coor && !list) {
      SNOW_WARN("dropping the finalize-coor part of finalize from node "
                << from << ": this node is not the coordinator");
    }
    if (!gc) return true;
    std::vector<ReplRecord> recs(fin->objs.size());
    for (std::size_t i = 0; i < fin->objs.size(); ++i) {
      recs[i].kind = ReplRecord::kFinalize;
      recs[i].obj = fin->objs[i];
      recs[i].key = fin->key;
      recs[i].position = fin->position;
      recs[i].watermark = fin->watermark;
    }
    if (fin->coor && list) recs.push_back(coor_finalize_record(fin->position));
    commit_step(std::move(recs), stores, list, repl, kNoAck);
    return true;
  }
  if (const auto* fc = std::get_if<FinalizeCoorReq>(&m.payload)) {
    if (gc) commit_step({coor_finalize_record(fc->position)}, stores, list, repl, kNoAck);
    return true;
  }
  if (const auto* rd = std::get_if<ReadDoneReq>(&m.payload)) {
    // Primary-local even when replicated: reader floors are per-lineage.
    if (list) list->reader_done(from, rd->txn);
    return true;
  }
  return false;
}

bool handle_update_coor(Runtime& rt, NodeId self, NodeId from, TxnId txn,
                        const UpdateCoorReq& uc, std::optional<CoorList>& list,
                        Replicator* repl) {
  if (!list->admits(from, uc)) return false;
  if (repl == nullptr) {
    const Tag pos = list->push(uc.key, uc.objs);
    rt.send(self, from, Message{txn, UpdateCoorAck{pos, list->watermark()}});
    return true;
  }
  switch (repl->check_push(from, txn)) {
    case Replicator::PushStatus::kPending:
      return false;  // already logged; the commit waiter will ack
    case Replicator::PushStatus::kCommitted:
      rt.send(self, from,
              Message{txn, UpdateCoorAck{repl->committed_position(from), list->watermark()}});
      return false;
    case Replicator::PushStatus::kNew:
      break;
  }
  ReplRecord rec;
  rec.kind = ReplRecord::kListPush;
  rec.key = uc.key;
  rec.objs = uc.objs;
  rec.txn = txn;
  rec.writer = from;
  rec.position = repl->next_push_position();
  const Tag pos = rec.position;
  repl->append({std::move(rec)}, [&rt, self, from, txn, pos, &list] {
    rt.send(self, from, Message{txn, UpdateCoorAck{pos, list->watermark()}});
  });
  return true;
}

}  // namespace snowkit

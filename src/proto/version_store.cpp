#include "proto/version_store.hpp"

#include <algorithm>
#include <iterator>

#include "common/logging.hpp"
#include "metrics/gc_stats.hpp"
#include "proto/api.hpp"

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
  last_ = key;
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

bool VersionStore::can_finalize(const WriteKey& key, Tag position) const {
  const auto it = vals_.find(key);
  if (it == vals_.end()) return false;
  if (it->second.position != kInvalidTag) return true;  // duplicate notice
  const auto pit = by_pos_.find(position);
  return pit == by_pos_.end() || pit->second == key;
}

bool VersionStore::finalize_is_noop(const WriteKey& key, Tag position) const {
  const auto it = vals_.find(key);
  if (it != vals_.end()) return it->second.position != kInvalidTag;
  auto anchor = by_pos_.upper_bound(watermark_);
  return anchor != by_pos_.begin() && std::prev(anchor)->first > position;
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

std::vector<Version> VersionStore::chain_from(Tag floor) const {
  const auto above = by_pos_.upper_bound(floor);
  if (floor <= watermark_ || above == by_pos_.begin()) return all();
  const Tag anchor = std::prev(above)->first;  // the newest finalized at or below `floor`
  std::vector<Version> out;
  out.reserve(vals_.size());
  for (const auto& [k, slot] : vals_) {
    if (slot.position != kInvalidTag && slot.position < anchor) continue;
    out.push_back(Version{k, slot.value});
  }
  return out;
}

std::vector<Version> VersionStore::chain_past(const WriteKey& held, Tag floor) const {
  const auto it = vals_.find(held);
  if (it != vals_.end() && it->second.position != kInvalidTag) {
    floor = std::max(floor, it->second.position);
  }
  std::vector<Version> out = chain_from(floor);
  std::erase_if(out, [&](const Version& v) { return v.key == held; });
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
  const auto [it, added] = floors_.try_emplace(reader, ReaderSlot{txn, floor});
  if (added) return floor;
  // A newer READ replaces the reader's last one, releasing its floor as
  // that READ's read-done would; a retry of the same READ just re-pins.
  const bool replaces = it->second.txn < txn;
  it->second = ReaderSlot{txn, floor};
  if (replaces) advance_();
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

std::map<std::size_t, ReadValBatchReq> read_batches_by_shard(
    const Placement& place, Tag watermark, const std::map<ObjectId, WriteKey>& keys) {
  std::map<std::size_t, ReadValBatchReq> by_shard;
  for (const auto& [obj, key] : keys) {
    ReadValBatchReq& batch = by_shard[place.shard_of(obj)];
    batch.watermark = watermark;
    batch.entries.push_back({obj, key});
  }
  return by_shard;
}

std::map<std::size_t, ReadValsBatchReq> read_batches_by_shard(const Placement& place,
                                                              Tag floor,
                                                              std::vector<ObjectId> objs) {
  std::sort(objs.begin(), objs.end());
  std::map<std::size_t, ReadValsBatchReq> by_shard;
  for (ObjectId obj : objs) {
    ReadValsBatchReq& batch = by_shard[place.shard_of(obj)];
    batch.floor = floor;
    batch.objs.push_back(obj);
  }
  return by_shard;
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

}  // namespace snowkit

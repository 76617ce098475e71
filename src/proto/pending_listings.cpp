#include "proto/pending_listings.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace snowkit {

namespace {

bool names_a_write(const WriteKey& key) { return key.seq != 0 && key.writer != kInvalidNode; }

bool in_set(const std::vector<ObjectId>& objs, ObjectId obj) {
  return std::binary_search(objs.begin(), objs.end(), obj);
}

}  // namespace

std::optional<PendingListings::Ready> PendingListings::update_coor(
    NodeId from, TxnId txn, const UpdateCoorReq& uc,
    const std::vector<std::pair<ObjectId, Value>>& own) {
  for (const auto& [obj, value] : own) {
    if (in_set(uc.objs, obj)) continue;
    SNOW_WARN("dropping write-val from node " << from << ": it writes object " << obj
                                              << " outside its update-coor's write set");
    return std::nullopt;
  }
  if (!names_a_write(uc.key)) {
    SNOW_WARN("dropping update-coor from node " << from << ": " << to_string(uc.key)
                                                << " is no WRITE's key");
    return std::nullopt;
  }
  Slot& slot = slots_[uc.key.writer];
  if (uc.key.seq < slot.listed || (slot.uc && uc.key < *slot.key)) {
    SNOW_WARN("dropping update-coor from node " << from << ": " << to_string(uc.key)
                                                << " is older than its writer's newest WRITE");
    return std::nullopt;
  }
  if (slot.key != uc.key) {
    // Acks buffered for another key of this writer belong to no WRITE it
    // can still send: a newer one is forged, an older one already listed.
    slot.key = uc.key;
    slot.stored.clear();
  }
  for (auto it = slot.stored.begin(); it != slot.stored.end();) {
    if (in_set(uc.objs, *it)) {
      ++it;
      continue;
    }
    SNOW_WARN("dropping a buffered ack of " << to_string(uc.key) << ": object " << *it
                                           << " is outside its write set");
    it = slot.stored.erase(it);
  }
  slot.uc = uc;
  slot.from = from;
  slot.txn = txn;
  slot.own = own;
  for (const auto& [obj, value] : own) slot.stored.insert(obj);
  return take_if_ready(slot);
}

std::optional<PendingListings::Ready> PendingListings::ack(NodeId from, const WriteValAck& ack) {
  const auto drop = [&](const char* why) {
    SNOW_WARN("dropping write-val-ack of " << to_string(ack.key) << " from node " << from << ": "
                                           << why);
    return std::nullopt;
  };
  if (!names_a_write(ack.key)) return drop("it names no WRITE's key");
  Slot& slot = slots_[ack.key.writer];
  if (ack.key.seq == slot.listed) return std::nullopt;  // a duplicate: already listed
  if (ack.key.seq < slot.listed) return drop("its writer has listed a newer WRITE");
  if (slot.key && ack.key < *slot.key) return drop("its writer has a newer WRITE pending");
  if (slot.key && *slot.key < ack.key) {
    if (slot.uc) return drop("no WRITE of its writer names that key");
    slot.stored.clear();  // a newer WRITE: the buffered acks were stale or forged
  }
  slot.key = ack.key;
  if (slot.uc) {
    for (ObjectId obj : ack.objs) {
      if (!in_set(slot.uc->objs, obj)) return drop("it names an object outside the write set");
    }
  }
  slot.stored.insert(ack.objs.begin(), ack.objs.end());
  return take_if_ready(slot);
}

void PendingListings::listed(const WriteKey& key) {
  Slot& slot = slots_[key.writer];
  slot.listed = std::max(slot.listed, key.seq);
  if (slot.key && slot.key->seq <= slot.listed) slot = Slot{slot.listed};
}

std::size_t PendingListings::pending() const {
  std::size_t n = 0;
  for (const auto& [writer, slot] : slots_) n += slot.key ? 1 : 0;
  return n;
}

std::optional<PendingListings::Ready> PendingListings::take_if_ready(Slot& slot) {
  if (!slot.uc) return std::nullopt;
  for (ObjectId obj : slot.uc->objs) {
    if (slot.stored.count(obj) == 0) return std::nullopt;
  }
  Ready ready{slot.from, slot.txn, std::move(*slot.uc), std::move(slot.own)};
  slot = Slot{ready.uc.key.seq};
  return ready;
}

}  // namespace snowkit

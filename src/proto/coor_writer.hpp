// The writer of Pseudocode 5, shared verbatim by Algorithms B and C and by
// the adaptive and occ-reads protocols (build_version_fleet places it):
//   write-value:  (write-val, (kappa, v_i)) to every server in the write set,
//                 await all acks;
//   update-coor:  (update-coor, (kappa, b_1..b_k)) to the coordinator s*,
//                 which appends to List and returns the tag t_w.  The mask
//                 travels as the write set {i : b_i = 1}, so nothing the
//                 writer builds or sends grows with k.
//
// Object->server routing goes through the system's Placement, and every
// step sends ONE frame per server, not per object: a server hosting several
// objects of the WRITE gets one write-val carrying all of them and answers
// one ack naming them.  In the paper's model (one server per object) that is
// exactly Pseudocode 5; on a sharded fleet a 2-object WRITE whose objects
// share a server costs 1 write-val and 1 ack instead of 2 and 2.
//
// When `send_finalize` is set (snowkit's bounded-version extension for
// Algorithms B and C) the writer additionally fire-and-forgets the assigned
// List position to its servers, one finalize per server — carrying the
// coordinator's read watermark from the update-coor ack, which is how
// watermark advancement reaches the version stores — and tells the
// coordinator that the WRITE completed (the base of the watermark; see
// proto/version_store.hpp).  When the WRITE touches the coordinator's shard
// that shard's finalize carries the notice (`coor` set); otherwise it is a
// separate finalize-coor.  This adds messages but no round.
//
// Frames per WRITE with finalize on, for a WRITE over S servers: S
// write-vals + S acks + update-coor + its ack + S finalizes, plus 1
// finalize-coor when the coordinator's shard is not among the S — 3S + 2 or
// 3S + 3.
//
// With `replicated` set the writer tracks per-shard routes: a TakeoverNotice
// re-routes the shard and the writer re-sends whatever this shard still owes
// it — its write-val if un-acked in phase one, the update-coor in phase two.
// The coordinator deduplicates re-sent update-coors by (writer, txn), so a
// WRITE listed by the dead lineage is re-acked at its original position.
// Stale acks from superseded attempts are dropped.
#pragma once

#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "proto/api.hpp"
#include "proto/version_store.hpp"

namespace snowkit {

class CoorWriter final : public WriteClient {
 public:
  CoorWriter(HistoryRecorder& rec, const Placement& place, std::size_t coor_shard,
             bool send_finalize, bool replicated = false)
      : WriteClient(rec, place, replicated), coor_shard_(coor_shard),
        send_finalize_(send_finalize) {}

 private:
  void start() override {
    key_ = WriteKey{++z_, id()};
    objs_ = write_set(writes());
    by_shard_ = write_vals_by_shard(place(), key_, writes());
    unacked_.clear();
    coor_sent_ = false;
    for (const auto& [shard, wv] : by_shard_) {
      unacked_.insert(shard);
      send(route(shard), Message{txn(), wv});
    }
  }

  bool on_reply(NodeId, const Message& m) override {
    if (const auto* ack = std::get_if<WriteValAck>(&m.payload)) {
      if (coor_sent_) return true;  // a duplicate from a superseded attempt
      unacked_.erase(place().shard_of(ack->objs.front()));
      if (unacked_.empty()) {
        coor_sent_ = true;
        send(route(coor_shard_), Message{m.txn, UpdateCoorReq{key_, objs_}});
      }
      return true;
    }
    if (const auto* ack = std::get_if<UpdateCoorAck>(&m.payload)) {
      if (send_finalize_) send_finalizes(m.txn, *ack);
      finish(ack->tag, /*rounds=*/2);
      return true;
    }
    return false;
  }

  /// One finalize per written shard; the coordinator's shard's carries the
  /// finalize-coor notice, which goes alone only if W misses that shard.
  void send_finalizes(TxnId txn, const UpdateCoorAck& ack) {
    if (by_shard_.count(coor_shard_) == 0) {
      send(route(coor_shard_), Message{txn, FinalizeCoorReq{ack.tag}});
    }
    for (const auto& [shard, wv] : by_shard_) {
      FinalizeReq fin{key_, ack.tag, ack.watermark, {}, shard == coor_shard_};
      fin.objs.reserve(wv.writes.size());
      for (const auto& [obj, value] : wv.writes) fin.objs.push_back(obj);
      send(route(shard), Message{txn, std::move(fin)});
    }
  }

  void on_takeover(const TakeoverNotice& tn) override {
    if (!in_flight()) return;
    if (!coor_sent_) {
      // Phase one: the new primary may never have seen (or committed) our
      // write-val — re-send it if this shard has not acked.  Inserts are
      // overwrite-idempotent, so duplicates are harmless.
      if (unacked_.count(tn.shard) != 0) send(tn.node, Message{txn(), by_shard_.at(tn.shard)});
    } else if (tn.shard == coor_shard_) {
      send(tn.node, Message{txn(), UpdateCoorReq{key_, objs_}});
    }
  }

  std::size_t coor_shard_;
  bool send_finalize_;
  std::uint64_t z_ = 0;
  // The WRITE in flight.
  WriteKey key_;
  std::vector<ObjectId> objs_;                   ///< the write set W, ascending.
  std::map<std::size_t, WriteValReq> by_shard_;  ///< one write-val per server shard.
  std::set<std::size_t> unacked_;                ///< shards whose ack is still owed.
  bool coor_sent_{false};                        ///< phase two: update-coor in flight.
};

}  // namespace snowkit

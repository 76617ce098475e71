// The writer of Pseudocode 5, shared verbatim by Algorithms B and C and by
// the adaptive and occ-reads protocols (build_version_fleet places it):
//   write-value:  (write-val, (kappa, v_i)) to every server in the write set;
//   update-coor:  (update-coor, (kappa, b_1..b_k)) to the coordinator s*,
//                 which appends to List and returns the tag t_w.  The mask
//                 travels as the write set {i : b_i = 1}, so nothing the
//                 writer builds or sends grows with k.
//
// Both go out in ONE step (wire v10).  Each write-val names s*'s current
// node, and its server sends the ack there once the inserts are stored
// instead of back to the writer; s* lists the WRITE exactly when every
// object of W is confirmed stored (proto/pending_listings.hpp) and only
// then acks the writer.  So the paper's rule — List only after every
// write-val was acked — holds with the acks one hop shorter: a WRITE takes
// 3 hops (write-val, relayed ack, update-coor-ack) instead of 4.  On s*'s
// shard the update-coor rides the write-val (WriteValReq::update_coor, like
// the get-tag-arr that rides read-vals-batch), and s* commits its own
// inserts in the same step as the List push; when W misses s*'s shard the
// update-coor goes alone in the same step.
//
// Object->server routing goes through the system's Placement, and every
// step sends ONE frame per server, not per object: a server hosting several
// objects of the WRITE gets one write-val carrying all of them and relays
// one ack naming them.
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
// write-vals, S - 1 relayed acks, the update-coor-ack and S finalizes when
// W touches s*'s shard (3S); S write-vals, the update-coor, S relayed acks,
// its ack, S finalizes and the finalize-coor otherwise (3S + 3).
//
// With `replicated` set the writer tracks per-shard routes.  While its
// WRITE is unlisted, a TakeoverNotice re-sends what the new primary may
// lack: that shard's write-val, or, for s*'s shard, every write-val and the
// update-coor, naming the new node (s*'s listing gate is primary-local).
// Inserts are overwrite-idempotent and s* ignores duplicate acks and
// deduplicates re-sent update-coors by (writer, txn), so a WRITE listed by
// the dead lineage is re-acked at its original position.  The writer also
// keeps the finalizes it sent within the last 2 x kFinalizeLinger, per
// shard, and re-sends them on that shard's takeover: a primary that dies
// before it ships a finalize (it may hold one kFinalizeLinger) would
// otherwise leave its version unfinalized on the new primary for good.
#pragma once

#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "proto/api.hpp"
#include "proto/replica.hpp"
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
    send_step();
  }

  /// Every write-val, each naming s*'s node, and the update-coor: folded
  /// into s*'s write-val, or alone when W misses s*'s shard.
  void send_step() {
    for (const auto& [shard, wv] : by_shard_) send_write_val(shard);
    if (by_shard_.count(coor_shard_) == 0) {
      send(route(coor_shard_), Message{txn(), UpdateCoorReq{key_, objs_}});
    }
  }

  void send_write_val(std::size_t shard) {
    WriteValReq wv = by_shard_.at(shard);
    wv.ack_to = route(coor_shard_);
    if (shard == coor_shard_) wv.update_coor = UpdateCoorReq{key_, objs_};
    send(route(shard), Message{txn(), std::move(wv)});
  }

  bool on_reply(NodeId, const Message& m) override {
    const auto* ack = std::get_if<UpdateCoorAck>(&m.payload);
    if (ack == nullptr) return false;
    if (send_finalize_) send_finalizes(m.txn, *ack);
    finish(ack->tag, /*rounds=*/1);
    return true;
  }

  /// One finalize per written shard; the coordinator's shard's carries the
  /// finalize-coor notice, which goes alone only if W misses that shard.
  void send_finalizes(TxnId txn, const UpdateCoorAck& ack) {
    if (by_shard_.count(coor_shard_) == 0) {
      send_finalize(coor_shard_, Message{txn, FinalizeCoorReq{ack.tag}});
    }
    for (const auto& [shard, wv] : by_shard_) {
      FinalizeReq fin{key_, ack.tag, ack.watermark, {}, shard == coor_shard_};
      fin.objs.reserve(wv.writes.size());
      for (const auto& [obj, value] : wv.writes) fin.objs.push_back(obj);
      send_finalize(shard, Message{txn, std::move(fin)});
    }
  }

  void send_finalize(std::size_t shard, Message m) {
    if (replicated()) {
      forget_old_finalizes();
      recent_finalizes_.push_back({rt().now_ns(), shard, m});
    }
    send(route(shard), std::move(m));
  }

  /// Drops the finalizes sent more than 2 x kFinalizeLinger ago: a primary
  /// has shipped those to its backup (or its successor never needs them).
  void forget_old_finalizes() {
    const TimeNs now = rt().now_ns();
    while (!recent_finalizes_.empty() &&
           now - recent_finalizes_.front().sent_at > 2 * kFinalizeLinger) {
      recent_finalizes_.pop_front();
    }
  }

  void on_takeover(const TakeoverNotice& tn) override {
    forget_old_finalizes();
    for (const SentFinalize& f : recent_finalizes_) {
      if (f.shard == tn.shard) send(tn.node, f.msg);
    }
    if (!in_flight()) return;
    if (tn.shard == coor_shard_) {
      send_step();
    } else if (by_shard_.count(tn.shard) != 0) {
      send_write_val(tn.shard);
    }
  }

  struct SentFinalize {
    TimeNs sent_at;
    std::size_t shard;
    Message msg;
  };

  std::size_t coor_shard_;
  bool send_finalize_;
  std::uint64_t z_ = 0;
  // The WRITE in flight.
  WriteKey key_;
  std::vector<ObjectId> objs_;                   ///< the write set W, ascending.
  std::map<std::size_t, WriteValReq> by_shard_;  ///< one write-val per server shard.
  /// Finalizes of completed WRITEs, oldest first (replicated fleets only).
  std::deque<SentFinalize> recent_finalizes_;
};

}  // namespace snowkit

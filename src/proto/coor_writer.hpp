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
// Stale acks from superseded attempts are dropped instead of SNOW_CHECKed.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "proto/api.hpp"
#include "proto/replica.hpp"
#include "proto/version_store.hpp"

namespace snowkit {

class CoorWriter final : public Node, public WriteClientApi {
 public:
  CoorWriter(HistoryRecorder& rec, const Placement& place, std::size_t coor_shard,
             bool send_finalize, bool replicated = false)
      : rec_(rec), place_(place), coor_shard_(coor_shard),
        send_finalize_(send_finalize), replicated_(replicated), routes_(place.num_servers()) {}

  void write(std::vector<std::pair<ObjectId, Value>> writes, WriteCallback cb) override {
    SNOW_CHECK_MSG(!pending_, "writer " << id() << " already has a WRITE in flight");
    SNOW_CHECK(!writes.empty());
    const TxnId txn = rec_.begin_write(id(), writes);
    pending_.emplace();
    pending_->txn = txn;
    pending_->key = WriteKey{++z_, id()};
    pending_->objs = write_set(writes);
    pending_->cb = std::move(cb);
    pending_->by_shard = write_vals_by_shard(place_, pending_->key, writes);
    for (const auto& [shard, wv] : pending_->by_shard) {
      pending_->unacked.insert(shard);
      send(routes_.node_of(shard), Message{txn, wv});
    }
  }

  NodeId node_id() const override { return id(); }
  std::size_t num_objects() const override { return place_.num_objects(); }

  void on_message(NodeId, const Message& m) override {
    if (const auto* tn = std::get_if<TakeoverNotice>(&m.payload)) {
      on_takeover(*tn);
      return;
    }
    if (const auto* ack = std::get_if<WriteValAck>(&m.payload)) {
      if (replicated_) {
        if (!pending_ || pending_->txn != m.txn || pending_->coor_sent) return;
      } else {
        SNOW_CHECK(pending_ && pending_->txn == m.txn);
      }
      pending_->unacked.erase(place_.shard_of(ack->objs.front()));
      if (pending_->unacked.empty()) {
        pending_->coor_sent = true;
        send(routes_.node_of(coor_shard_),
             Message{m.txn, UpdateCoorReq{pending_->key, pending_->objs}});
      }
      return;
    }
    if (const auto* ack = std::get_if<UpdateCoorAck>(&m.payload)) {
      if (replicated_) {
        if (!pending_ || pending_->txn != m.txn) return;
      } else {
        SNOW_CHECK(pending_ && pending_->txn == m.txn);
      }
      if (send_finalize_) send_finalizes(m.txn, *ack);
      rec_.finish_write(pending_->txn, ack->tag, /*rounds=*/2);
      auto cb = std::move(pending_->cb);
      const WriteResult result{pending_->txn};
      pending_.reset();
      cb(result);
      return;
    }
    SNOW_UNREACHABLE("coor-writer got unexpected payload");
  }

 private:
  struct Pending {
    TxnId txn{kInvalidTxn};
    WriteKey key;
    std::vector<ObjectId> objs;                   ///< the write set W, ascending.
    std::map<std::size_t, WriteValReq> by_shard;  ///< one write-val per server shard.
    std::set<std::size_t> unacked;                ///< shards whose ack is still owed.
    bool coor_sent{false};                        ///< phase two: update-coor in flight.
    WriteCallback cb;
  };

  /// One finalize per written shard; the coordinator's shard's carries the
  /// finalize-coor notice, which goes alone only if W misses that shard.
  void send_finalizes(TxnId txn, const UpdateCoorAck& ack) {
    if (pending_->by_shard.count(coor_shard_) == 0) {
      send(routes_.node_of(coor_shard_), Message{txn, FinalizeCoorReq{ack.tag}});
    }
    for (const auto& [shard, wv] : pending_->by_shard) {
      FinalizeReq fin{pending_->key, ack.tag, ack.watermark, {}, shard == coor_shard_};
      fin.objs.reserve(wv.writes.size());
      for (const auto& [obj, value] : wv.writes) fin.objs.push_back(obj);
      send(routes_.node_of(shard), Message{txn, std::move(fin)});
    }
  }

  void on_takeover(const TakeoverNotice& tn) {
    if (!routes_.update(tn.shard, tn.node, tn.epoch)) return;
    if (!pending_) return;
    if (!pending_->coor_sent) {
      // Phase one: the new primary may never have seen (or committed) our
      // write-val — re-send it if this shard has not acked.  Inserts are
      // overwrite-idempotent, so duplicates are harmless.
      if (pending_->unacked.count(tn.shard) != 0) {
        send(tn.node, Message{pending_->txn, pending_->by_shard.at(tn.shard)});
      }
    } else if (tn.shard == coor_shard_) {
      send(tn.node, Message{pending_->txn, UpdateCoorReq{pending_->key, pending_->objs}});
    }
  }

  HistoryRecorder& rec_;
  Placement place_;
  std::size_t coor_shard_;
  bool send_finalize_;
  bool replicated_;
  ShardRoutes routes_;
  std::uint64_t z_ = 0;
  std::optional<Pending> pending_;
};

}  // namespace snowkit

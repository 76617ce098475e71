// The coordinator s*'s listing gate: the WRITEs it has heard of but not yet
// listed.
//
// A WRITE's servers report "stored" straight to s* (wire v10): each
// write-val names s*'s primary, and once its inserts commit the server sends
// its WriteValAck there instead of back to the writer.  The writer sends
// its update-coor in the same step, folded into s*'s write-val when W
// touches s*'s shard.  s* lists W exactly when every object of W is
// confirmed stored — by a relayed ack naming it, or, for s*'s own objects,
// by the write-val the update-coor rode in, whose inserts commit in the same
// step as the List push.  That is Pseudocode 5's rule (list only after every
// write-val was acked) with the acks sent one hop shorter, so a WRITE is
// listed one hop after its last insert and the histories are unchanged.
//
// One slot per writer, keyed by the key's writer id: a writer has one WRITE
// in flight, so the slot holds that WRITE (its newest key) and the newest
// key this gate listed for it, and the state is bounded by the number of
// writers.  An ack may arrive before its update-coor (the two travel
// different links); it is buffered in the slot.  A duplicate ack — a
// takeover's re-sent write-val, or one for the key just listed — is
// ignored.  An ack naming an object outside W, a key older than the slot's,
// or a key the gate cannot place (a newer one while the slot's WRITE has
// its update-coor, or no WRITE's key at all) is dropped with a warning.
//
// The state is primary-local, like reader floors: a new primary starts
// empty, and writers re-send every write-val and the update-coor to it
// (CoorWriter::on_takeover).  Replicated retries of a WRITE the old lineage
// listed are answered from the replicated log before they reach the gate.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "msg/payloads.hpp"

namespace snowkit {

class PendingListings {
 public:
  /// A WRITE every object of which is confirmed stored: s* lists it now.
  struct Ready {
    NodeId writer{kInvalidNode};  ///< where the update-coor-ack goes.
    TxnId txn{kInvalidTxn};       ///< the update-coor's txn.
    UpdateCoorReq uc;
    /// s*'s own inserts, from the write-val the update-coor rode in.
    std::vector<std::pair<ObjectId, Value>> own;
  };

  /// `from`'s update-coor `uc` for `txn`, with `own` the writes of the
  /// write-val it was folded into (empty when it came alone).  Returns the
  /// WRITE if that completes it.
  std::optional<Ready> update_coor(NodeId from, TxnId txn, const UpdateCoorReq& uc,
                                   const std::vector<std::pair<ObjectId, Value>>& own);

  /// Server `from`'s relayed ack.  Returns the WRITE if that completes it.
  std::optional<Ready> ack(NodeId from, const WriteValAck& ack);

  /// Notes that `key` is listed (a replicated retry the log answered), so
  /// its late acks are duplicates.
  void listed(const WriteKey& key);

  void clear() { slots_.clear(); }
  /// WRITEs with an update-coor or a buffered ack, not yet listed.
  std::size_t pending() const;

 private:
  struct Slot {
    std::uint64_t listed{0};  ///< the newest listed seq of this writer (0: none).
    /// The unlisted WRITE: its key, the objects confirmed stored and, once
    /// its update-coor arrived, that and the reply's address.
    std::optional<WriteKey> key;
    std::set<ObjectId> stored;
    std::optional<UpdateCoorReq> uc;
    NodeId from{kInvalidNode};
    TxnId txn{kInvalidTxn};
    std::vector<std::pair<ObjectId, Value>> own;
  };

  /// Hands out the slot's WRITE if every object of W is stored.
  static std::optional<Ready> take_if_ready(Slot& slot);

  std::map<NodeId, Slot> slots_;
};

}  // namespace snowkit

// The server of Pseudocode 6, shared by Algorithm B and the optimistic
// one-version (OCC) reader: per-object Vals version stores plus, on the
// coordinator s*, the List of WRITE-transaction entries (a CoorList with
// incremental per-object indexes) with get-tag-arr / update-coor.  One
// server instance may host many objects under a sharded Placement; every
// request names its object, so the stores stay disjoint.
//
// With `gc` on, the watermark flow of proto/version_store.hpp is active:
// finalize notices and read-val piggybacks advance per-object watermarks and
// prune superseded versions.  Because occ readers request *speculative* keys
// (their previous read's cut, or kappa_0 on a cold start) rather than
// watermark-protected ones, a requested key may legitimately be gone — the
// server then answers found == false and the reader falls back to its
// validation-failed path instead of aborting.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "common/assert.hpp"
#include "proto/api.hpp"
#include "proto/version_store.hpp"

namespace snowkit {

class CoorServer final : public Node {
 public:
  CoorServer(std::size_t k, bool is_coordinator, bool gc = false)
      : is_coordinator_(is_coordinator), gc_(gc) {
    if (is_coordinator_) list_.emplace(k);
  }

  void on_message(NodeId from, const Message& m) override {
    if (misrouted(from, m, is_coordinator_)) return;
    if (handle_write_path(rt(), id(), from, m, gc_, stores_, list_, /*repl=*/nullptr)) return;
    if (const auto* rv = std::get_if<ReadValReq>(&m.payload)) {
      VersionStore& vals = stores_[rv->obj];
      if (gc_) vals.advance_watermark(rv->watermark);
      // Non-blocking, one version.  A miss is only reachable for speculative
      // keys (see header); protocols that name watermark-protected keys
      // always find them.
      const std::optional<Value> v = vals.try_get(rv->key);
      send(from, Message{m.txn, ReadValResp{rv->obj, rv->key, v.value_or(kInitialValue),
                                            v.has_value()}});
      return;
    }
    if (const auto* uc = std::get_if<UpdateCoorReq>(&m.payload)) {
      handle_update_coor(rt(), id(), from, m.txn, *uc, list_, /*repl=*/nullptr);
      return;
    }
    if (const auto* gt = std::get_if<GetTagArrReq>(&m.payload)) {
      list_->register_reader(from, m.txn);
      send(from, Message{m.txn, list_->tag_arr(gt->objs, /*with_history=*/false)});
      return;
    }
    SNOW_UNREACHABLE("coor-server got unexpected payload");
  }

 private:
  bool is_coordinator_;
  bool gc_;
  std::map<ObjectId, VersionStore> stores_;  ///< per hosted object.
  std::optional<CoorList> list_;             ///< coordinator only.
};

}  // namespace snowkit

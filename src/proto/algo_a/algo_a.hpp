// Algorithm A (paper §5.2, Pseudocode 4): SNOW READ transactions in the
// multi-writer single-reader (MWSR) setting, using client-to-client (C2C)
// communication.
//
// WRITE (writer w):
//   write-value:  send (write-val, (kappa, v_i)) to every server in the write
//                 set; await all acks.   kappa = (z+1, w).
//   info-reader:  send (info-reader, (kappa, b_1..b_k)) to the reader —
//                 a C2C message — and await (ack, t_w).
// READ (reader r): for each object i, look up the newest List entry with
//   b_i = 1, send (read-val, kappa_i) to s_i — one read-val-batch per server
//   for all of its objects — and return the values after one round.
//   Non-blocking, one round, one version: all of SNOW (Theorem 3).
//
// The reader's List is the serialization order: a WRITE's tag is the List
// index of its entry; a READ's tag is the largest index it used.  These tags
// satisfy Lemma 20, which is how tests check the S property.
//
// For the Fig. 1(a) ✗-cells the topology may be built with MORE than one
// reader (writers then update every reader's List).  That configuration is
// intentionally unsafe — the SNOW Theorem says so — and the fig1a bench
// exhibits the resulting strict-serializability violation.
#pragma once

#include <memory>
#include <optional>

#include "proto/api.hpp"
#include "proto/version_store.hpp"

namespace snowkit {

struct AlgoAOptions {
  /// Permit num_readers > 1 (used only by impossibility demos).
  bool allow_multiple_readers{false};
};

/// Builds an Algorithm-A instance: servers first (node ids 0..s-1), then
/// readers, then writers.
std::unique_ptr<ProtocolSystem> build_algo_a(Runtime& rt, HistoryRecorder& rec,
                                             const SystemConfig& cfg, AlgoAOptions opts = {});

}  // namespace snowkit

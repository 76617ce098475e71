// Optimistic one-version READ transactions — the (rounds = ∞, versions = 1)
// cell of Fig. 1(b).
//
// The paper's matrix marks (∞, 1) as previously-achievable: strictly
// serializable one-version reads exist if you give up *bounded* rounds.
// snowkit's concrete instance is an optimistic variant of Algorithm B:
//
//   round n:  in parallel, send get-tag-arr to the coordinator s* AND
//             read-val(kappa_i^{n-1}) for each object — one read-val-batch
//             per server — where kappa^{n-1} are the latest keys learned in
//             round n-1 (kappa_0 initially).
//   accept:   if the round-n tag array still names exactly the keys whose
//             values were just fetched, those values are the consistent cut
//             at t_r^n — finish with tag t_r^n.  Otherwise retry with the
//             new keys.
//
// Properties: non-blocking, one version per response, strictly serializable
// (same Lemma-20 order as Algorithm B; acceptance re-validates the cut), and
// ONE round when no conflicting WRITE races the READ — but the worst case is
// unbounded: a sufficiently adversarial write stream can starve the read
// forever, which is exactly why this cell does not contradict the theorem.
// `max_rounds` (default 0 = unlimited) optionally falls back to Algorithm
// B's pessimistic second round after too many failed validations, trading
// the ∞ for a deterministic bound.
#pragma once

#include <memory>

#include "proto/api.hpp"

namespace snowkit {

struct OccOptions {
  /// Which server shard acts as coordinator s* (index < server_count()).
  std::size_t coordinator{0};
  /// 0 = retry forever (the literal (∞,1) cell).  n > 0 = after n failed
  /// optimistic rounds, run one pessimistic Algorithm-B round (bounded).
  int max_optimistic_rounds{0};
  /// Watermark version GC (opt-in here, unlike algorithms B/C): bounds Vals,
  /// at the price that a speculative key may have been pruned — the server
  /// answers found == false and the reader takes its validation-failed
  /// retry, so cold-start reads can cost an extra round.
  bool gc_versions{false};
};

std::unique_ptr<ProtocolSystem> build_occ(Runtime& rt, HistoryRecorder& rec,
                                          const SystemConfig& cfg, OccOptions opts = {});

}  // namespace snowkit

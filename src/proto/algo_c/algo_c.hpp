// Algorithm C (paper §9, Pseudocodes 5 and 7): SNW + one-round READ
// transactions in the MWMR setting, no client-to-client communication.
// A READ sends, in a single parallel round, get-tag-arr to the coordinator
// s* and read-vals for every object it reads — one read-vals-batch per
// server, s*'s carrying the get-tag-arr when the READ reads s*'s shard, so
// that s* too gets one frame.  Servers respond non-blocking, but each
// object's list may carry multiple versions: up to |W| + 1, where |W|
// counts the WRITEs whose interval overlaps the READ's (the |W| entry of
// Fig. 1(b)).
//
// Version selection.  Pseudocode 7 returns the value whose key matches the
// coordinator's kappa_j.  Because read-vals may overtake a concurrent
// write-val in the asynchronous network, kappa_j can be absent from the
// returned Vals_j; snowkit's reader therefore runs a *feasibility descent*:
// it takes the largest List position t <= t_r such that, for every object
// read, the newest position-<=-t key for that object is present in the
// returned Vals.  Position t* (the newest write that real-time-precedes the
// READ) is always feasible — every write in List at position <= t* had all
// its write-vals processed before the READ was invoked — so the descent
// terminates and the chosen cut satisfies Lemma 20 (see tests/algo_c and
// DESIGN.md §5).
//
// Options:
//  * gc_versions / finalize (DEFAULT ON): the bounded-version extension.
//    Writers piggyback their assigned List position — and the coordinator's
//    read watermark — to servers on a finalize fan-out (no extra round), and
//    report completion back to the coordinator, whose watermark rule
//    (proto/version_store.hpp) retires versions no in-flight or future READ
//    can legally be served.  Each read-vals-batch also carries the reader's
//    read floor, the tag of its last READ, below which the descent never
//    settles, and the server trims that response to it, so a watermark an
//    idle reader pins does not grow the lists.  This bounds read-vals
//    responses by about |W|+1 versions and the tag-array history by the
//    live window, but — per the
//    race above — can make a descent fail; the reader then retries the whole
//    READ (giving up one-round, counted in `rounds`).  The ablation bench
//    measures both effects; gc_versions=false restores the paper's
//    keep-everything Vals for comparison.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "proto/api.hpp"

namespace snowkit {

struct AlgoCOptions {
  /// Which server shard acts as coordinator s* (index < server_count()).
  std::size_t coordinator{0};
  /// Finalize fan-out + watermark version GC (bounded responses).  Off means
  /// the paper's literal keep-everything Vals, which grows without bound.
  bool gc_versions{true};
  /// 1 = the paper's failure-free servers; 2 = crash-tolerant shards (see
  /// AlgoBOptions::replicas and proto/replica.hpp).
  std::size_t replicas{1};
  /// Directory for per-node WAL files; empty = in-memory WALs (sim).
  std::string wal_dir;
  /// FAULT INJECTION ONLY: ack writers before the backup confirms.
  bool unsafe_ack{false};
};

std::unique_ptr<ProtocolSystem> build_algo_c(Runtime& rt, HistoryRecorder& rec,
                                             const SystemConfig& cfg, AlgoCOptions opts = {});

}  // namespace snowkit

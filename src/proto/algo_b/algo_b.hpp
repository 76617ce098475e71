// Algorithm B (paper §8, Pseudocodes 5 and 6): SNW + one-version READ
// transactions in the multi-writer multi-reader (MWMR) setting, with no
// client-to-client communication.  READs take at most two rounds, and one
// when no WRITE races them:
//
//   round 1:       reader -> every server the READ touches, one
//                  read-vals-batch for its objects there.  s*'s batch carries
//                  the get-tag-array (it goes alone when the READ misses s*'s
//                  shard): s* returns t_r and kappa_i — the newest key in the
//                  coordinator's List — for each object i the READ names (the
//                  paper's array restricted to the read set), and answers its
//                  own objects in the same step with the one version stored
//                  under each kappa_i.  Every other server answers each object
//                  with the one version it inserted last, a guess the reader
//                  keeps only where its key is kappa_i;
//   read-value:    reader -> each server holding an object whose guess the
//                  tag array refuted, one read-val-batch naming the exact key
//                  kappa_i; servers respond non-blocking with exactly one
//                  version per object.  Skipped when round 1 resolved
//                  every object.
//
// WRITEs do write-value to the servers and update-coor to s*, which assigns
// the List position = the Lemma-20 tag once every written server has relayed
// it the ack (proto/coor_writer.hpp).  Theorem 4: every fair well-formed
// execution is strictly serializable, non-blocking, one-version.
//
// Objects route to servers through the SystemConfig's Placement, so several
// objects may share a server; each carries its own Vals store.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "proto/api.hpp"

namespace snowkit {

struct AlgoBOptions {
  /// Which server shard acts as coordinator s* (index < server_count()).
  std::size_t coordinator{0};
  /// Watermark version GC (DEFAULT ON): writers fan out finalize notices and
  /// readers piggyback the coordinator watermark on their batches, so Vals
  /// keeps only the per-object anchor plus versions above the watermark.
  /// READs still see exactly one version either way; off restores
  /// keep-everything Vals (the paper's literal state).
  bool gc_versions{true};
  /// 1 = the paper's failure-free servers; 2 = crash-tolerant shards: each
  /// server gets a WAL-backed backup replica, acks wait for replication, and
  /// the backup takes over on primary death (proto/replica.hpp).
  std::size_t replicas{1};
  /// Directory for per-node WAL files; empty = in-memory WALs (sim).
  std::string wal_dir;
  /// FAULT INJECTION ONLY: ack writers before the backup confirms.
  bool unsafe_ack{false};
  /// System name reported to the registry/checkers; fault-injection stubs
  /// that wrap this builder (fuzz/broken_lostack) register under their own.
  std::string name{"algo-b"};
};

std::unique_ptr<ProtocolSystem> build_algo_b(Runtime& rt, HistoryRecorder& rec,
                                             const SystemConfig& cfg, AlgoBOptions opts = {});

}  // namespace snowkit

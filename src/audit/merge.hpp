// Offline merge: chunk files from every fleet process -> one coherent run.
//
// All fleet processes parse the SAME fleet file, so node ids are already
// global — no renumbering is needed.  What merging must reconstruct is the
// EVENT ORDER and the Send<->Recv pairing that the sim runtime gets for
// free:
//
//   * Per-node program order: every node's actions run on exactly one
//     executor thread, i.e. live in exactly one capture ring, so replaying
//     each ring in seq order preserves it exactly.
//   * Cross-process order: all captures timestamp with CLOCK_MONOTONIC of
//     one machine (the loopback fleets this targets), so a k-way merge by
//     time across rings yields a valid interleaving.
//   * Pairing: wire frames carry no sequence numbers (the format is
//     frozen), so a Recv is matched to the oldest unmatched Send with the
//     same (from, to, txn, payload) — exact under per-link FIFO transport,
//     and degrading gracefully (unmatched events counted, never crashing)
//     when ring overwrites punched holes in either side's record.
//
// The merge never emits a Recv before its matched Send (a Recv whose Send
// is still unemitted waits; a Recv whose Send was lost is dropped and
// counted), so the resulting Trace always satisfies well_formed() and can
// be fed straight to the SNOW monitors.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "audit/chunk.hpp"
#include "history/history.hpp"
#include "sim/trace.hpp"

namespace snowkit::audit {

inline const std::string kMergedSchema = "snowkit-audit-merged-v1";

struct MergedAudit {
  std::string protocol;
  std::uint32_t num_servers{0};
  std::string fleet_text;  ///< "" for in-process captures.
  Trace trace;             ///< Send/Recv actions, paired msg_seq, time-ordered.
  std::optional<History> history;  ///< from the client process's final chunk.
  std::uint64_t total_events{0};
  std::uint64_t total_drops{0};     ///< ring overwrites across all chunks.
  std::uint32_t processes{0};       ///< distinct capturing processes seen.
  std::uint64_t unmatched_recvs{0};  ///< Recvs excluded for want of a Send.
  std::uint64_t unmatched_sends{0};  ///< Sends with no surviving Recv (kept).
  std::vector<std::string> warnings;
};

/// Merges decoded chunks into one run.  Throws std::invalid_argument when
/// the chunks cannot belong to one run (protocol/shard/fleet mismatch, two
/// history snapshots).  `fleet_override` replaces the embedded fleet text
/// for event-attribution validation (events captured by a process the fleet
/// does not place them on produce warnings).
MergedAudit merge_chunks(const std::vector<ChunkFile>& chunks,
                         const std::string& fleet_override = "");

std::vector<std::uint8_t> encode_merged(const MergedAudit& m);
MergedAudit decode_merged(const std::vector<std::uint8_t>& bytes, const std::string& context);

/// CLI convenience: one merged file, or any number of chunk files.
MergedAudit load_inputs(const std::vector<std::string>& paths,
                        const std::string& fleet_override = "");

}  // namespace snowkit::audit

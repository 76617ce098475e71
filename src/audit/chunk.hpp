// The flight recorder's on-disk chunk format: `snowkit-audit-chunk-v1`.
//
// Each capturing process writes a sequence of chunk files
// (`<prefix>.p<proc>.<seq>.auditchunk`).  A chunk is self-contained and
// independently loadable: header (who captured, which protocol/fleet),
// then tagged sections —
//
//   tag 1  ring group     one drained per-thread ring: ring uid, base
//                         seq/time, delta-coded events referencing the
//                         string table by index
//   tag 2  history        the client process's History snapshot (final
//                         chunk of the client process only)
//   tag 3  string table   payload names, indexed in first-use order
//   tag 0  trailer        event/drop totals, FNV-1a fingerprint over every
//                         preceding byte, end magic
//
// The trailer seals the file: the loader verifies magic + fingerprint
// BEFORE parsing, so a daemon killed mid-write leaves a chunk that is
// rejected with a clear "torn chunk" error rather than half-parsed.  Files
// are also written atomically (tmp + rename), so in practice a torn final
// chunk never appears under clean SIGTERM — the verification is the
// backstop for kill -9 and full disks.
//
// This format is versioned INDEPENDENTLY of the snowkit-wire frame
// format (docs/WIRE.md): chunks never travel between live peers, so
// the schema string may rev freely without a fleet flag day.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "audit/audit_event.hpp"
#include "common/buffer.hpp"
#include "history/history.hpp"

namespace snowkit::audit {

inline const std::string kChunkSchema = "snowkit-audit-chunk-v1";
inline constexpr std::uint64_t kChunkEndMagic = 0x4B4455414E535231ull;  // "1RSNAUDK"

/// Chunk header: identifies the capturing process and deployment.
struct ChunkMeta {
  std::uint32_t process_index{0};  ///< fleet process (0 for single-process).
  std::uint32_t chunk_seq{0};      ///< rotation counter within the process.
  std::string protocol;            ///< registry protocol name.
  std::uint32_t num_servers{0};    ///< server-node count (nodes < this are servers).
  std::string fleet_text;          ///< verbatim fleet file ("" for in-process runs).
};

/// A fully decoded chunk file.
struct ChunkFile {
  std::string path;  ///< where it was loaded from ("" for in-memory decodes).
  ChunkMeta meta;
  /// Events in ring-group order (each group's events contiguous, in ring
  /// order); AuditEvent::ring/seq preserve per-thread stream identity.
  std::vector<AuditEvent> events;
  /// Present in the final chunk of the process that drove the clients.
  std::optional<History> history;
  std::uint64_t drops{0};  ///< ring overwrites in the window this chunk covers.
};

/// Incremental chunk builder.  One ChunkWriter per chunk file; the capture
/// layer appends drained ring groups, optionally attaches the History, and
/// seals with finish().  Not thread-safe — the flusher owns it.
class ChunkWriter {
 public:
  explicit ChunkWriter(const ChunkMeta& meta);

  /// Appends one drained ring group.  `base_seq` is the per-ring push index
  /// of ev[0]; events must be in ring (per-thread program) order.
  void add_group(std::uint64_t ring_uid, std::uint64_t base_seq, const RawEvent* ev,
                 std::size_t n);

  /// Attaches the client process's history snapshot (final chunk only).
  void set_history(const History& h);

  std::size_t size() const { return buf_.size(); }
  std::uint64_t event_count() const { return total_events_; }

  /// Seals the chunk: history (if set), string table, trailer with `drops`
  /// (ring overwrites since the previous chunk), fingerprint, end magic.
  /// The writer is spent afterwards.
  std::vector<std::uint8_t> finish(std::uint64_t drops);

 private:
  std::uint32_t name_index(const char* name);

  std::vector<std::uint8_t> buf_;
  std::vector<std::string> names_;  // index -> name, first-use order
  std::optional<History> history_;
  std::uint64_t total_events_{0};
};

/// Decodes chunk bytes.  Verifies the end magic and fingerprint before
/// parsing; every malformation (truncation, corruption, torn write) throws
/// std::invalid_argument prefixed with `context`.
ChunkFile decode_chunk(const std::vector<std::uint8_t>& bytes, const std::string& context);

/// read_file + decode_chunk, with the path as error context.
ChunkFile load_chunk(const std::string& path);

/// `<prefix>.p<proc>.<seq:06>.auditchunk`
std::string chunk_filename(const std::string& prefix, std::uint32_t process_index,
                           std::uint32_t chunk_seq);

// ---- shared helpers (also used by the merged-file codec in merge.cpp) ----

std::uint64_t fnv1a(const std::uint8_t* data, std::size_t n);

/// Appends the 16-byte seal (FNV-1a over the current contents + end magic).
void seal(std::vector<std::uint8_t>& buf);

/// Verifies the seal; throws std::invalid_argument (prefixed with `context`)
/// on a short, torn, or corrupted buffer.  Returns the payload length
/// (bytes before the seal's fingerprint field).
std::size_t verify_seal(const std::vector<std::uint8_t>& bytes, const std::string& context);

void encode_history(const History& h, std::vector<std::uint8_t>& out);
History decode_history(BufReader& r);

std::vector<std::uint8_t> read_file(const std::string& path);
/// Writes via `<path>.tmp` + rename, so readers never observe a partial file.
void write_file_atomic(const std::string& path, const std::vector<std::uint8_t>& bytes);

/// Peeks the leading schema string of an audit file ("" if unreadable) —
/// lets the CLI accept chunk and merged files interchangeably.
std::string peek_schema(const std::vector<std::uint8_t>& bytes);

}  // namespace snowkit::audit

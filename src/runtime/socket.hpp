// snowkit-wire-v10 framing + TCP socket helpers for NetRuntime.
//
// The stream format (frozen in docs/WIRE.md) wraps the existing message
// codec (msg/codec.cpp, reused verbatim via encode_message_into) in
// length-prefixed frames so it can cross process boundaries:
//
//   HELLO   := len:u32le  0x01  magic:u32le("SNWK")  version:uv  process_index:uv
//   frame   := len:uv  body             (len = |body| <= 16 MiB, uv(len) <= 4 bytes)
//   MSG     := body = from:uv  to:uv  encoded-Message  (codec bytes verbatim)
//   SHUTDOWN:= the zero-length frame (one 0x00 byte)
//
// The HELLO keeps the v1-v6 layout forever and is valid only as the first
// frame an ACCEPTING side reads: any peer, of any version, is then refused
// by name ("wire version 8 (expected 9)") before a compact frame is parsed.
// Everything after the HELLO, and everything a dialer reads, is compact.
//
// FrameDecoder is the incremental reassembly unit: bytes arrive in arbitrary
// TCP chunks, frames pop out whole.  It is deliberately separable from the
// runtime so tests can split encoded streams at every byte offset
// (tests/frame_roundtrip_test.cpp).  A TCP peer's only credential is its
// HELLO, and the HELLO fields are public, so EVERYTHING on the stream stays
// untrusted: malformed framing, bad routing headers, and undecodable
// Message payloads are all reported as errors and drop the CONNECTION,
// never the process (NetRuntime uses try_decode_message for frame
// payloads).  What remains trusted is only control-plane INTENT: a
// zero-length frame (SHUTDOWN) from any greeted peer stops the daemon, so
// fleet ports must sit behind the operator's network boundary —
// snowkit-wire-v10 has no peer authentication (see the trust model note in
// net_runtime.hpp).  Before the HELLO a zero byte is only the start of a
// u32le length, never a SHUTDOWN.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "msg/message.hpp"

namespace snowkit::net {

/// "SNWK" little-endian: the first 4 body bytes of every HELLO.
inline constexpr std::uint32_t kWireMagic = 0x4B574E53u;
/// snowkit-wire-v10: v1's payload tags, framed as in v1 up to v6.  v2 sized
/// get-tag-arr, tag-arr and adapt-tag-arr (tags 6, 7, 36) by the READ's
/// objects; v3 sizes info-reader, update-coor and replication records by the
/// WRITE's objects and ships adaptive mode tables as deltas (tags 2, 4, 6,
/// 36), so no per-operation body grows with the object count.  v4 packs one server's
/// share of a WRITE into one write-val, write-val-ack and finalize (tags 0,
/// 1, 12), the last optionally carrying the finalize-coor notice.  v5 does
/// the same for READs: every reader sends one read-val-batch or
/// read-vals-batch per server per round (tags 37, 39, whose objects now
/// ride as an ascending set), and the per-object read-val and read-vals
/// (tags 8-11) have no sender.  v6 folds the get-tag-arr into the
/// coordinator shard's read-vals-batch and its reply into that batch's
/// response (tags 39, 40), so a READ sends one frame per server per round,
/// the coordinator included.  Since then tags 8-11 are reserved and the
/// decoder rejects them; no v6 peer sends them, so that needed no bump.
/// v7 changes framing only: after the HELLO a frame is `uv(len) body`, the
/// type byte is gone and SHUTDOWN is the empty frame (3 header bytes on a
/// small MSG instead of 7); codec bytes are unchanged.  v8 changes codec
/// bytes only: the envelope txn rides as uv(txn + 1), so kInvalidTxn (every
/// read-done and replication message) costs 1 byte instead of 10, and each
/// replication record kind writes only the fields it uses.  v9 changes
/// adapt-tag-arr only (tag 36): its steady mode state, a delta based at the
/// epoch with no flip, rides as uv(0) after the epoch (2 bytes instead of
/// 4), and any other base as uv(base + 1) ahead of its sets.  v10 changes
/// write-val only (tag 0): a head names the node its ack goes to (s*'s
/// primary, which lists the WRITE when every written server has reported)
/// and whether the WRITE's update-coor is folded into it, whose object set
/// then follows the writes.
/// Bump on any incompatible codec or framing change (docs/WIRE.md is the
/// contract); peers of another version are refused at HELLO.
inline constexpr std::uint64_t kWireVersion = 10;
/// Frames above this are a protocol error, not a large message: legitimate
/// payloads scale with a READ's objects or a server's live version chains
/// and stay orders of magnitude smaller, so an absurd length prefix means a
/// desynced or hostile stream and must not drive a multi-gigabyte
/// allocation.
inline constexpr std::size_t kMaxFrameBytes = 16u << 20;
/// A compact frame's length varint never needs more bytes than this
/// (kMaxFrameBytes < 2^28); a longer one is a corrupt stream.
inline constexpr std::size_t kMaxFrameLenBytes = 4;

enum class FrameType : std::uint8_t {
  kHello = 0x01,  ///< handshake: identifies the sending fleet process.  Its
                  ///< value is the type byte of the frozen HELLO layout; the
                  ///< other two kinds carry no type byte since v7.
  kMsg,           ///< one routed Message.
  kShutdown,      ///< fleet-wide stop notice (client -> servers).
};

struct Frame {
  FrameType type{FrameType::kMsg};
  /// A HELLO's bytes after its type byte; a MSG's whole body; empty for
  /// SHUTDOWN.
  std::vector<std::uint8_t> body;
};

/// Incremental frame reassembly over an untrusted byte stream.  A
/// default-constructed decoder (a dialer's) reads compact frames from the
/// first byte; accepting() reads one HELLO-layout frame first and then
/// switches to compact frames, carrying that state with it when NetRuntime
/// hands the connection to a PeerLink.
class FrameDecoder {
 public:
  /// The decoder of an accepted connection: its first frame must be a HELLO.
  static FrameDecoder accepting() {
    FrameDecoder d;
    d.hello_due_ = true;
    return d;
  }

  enum class Status {
    kNeedMore,  ///< no complete frame buffered yet.
    kFrame,     ///< one frame popped into `out`.
    kError,     ///< stream is corrupt; error() says why.  Terminal.
  };

  void feed(const std::uint8_t* data, std::size_t n);
  void feed(const std::vector<std::uint8_t>& bytes) { feed(bytes.data(), bytes.size()); }

  /// Pops the next complete frame.  After kError the decoder stays in the
  /// error state (callers close the connection).
  Status next(Frame& out);

  const std::string& error() const { return error_; }
  bool failed() const { return !error_.empty(); }
  /// True when buffered bytes form only a prefix of a frame — i.e. the
  /// stream ended mid-frame (a truncation, if the peer is gone).
  bool mid_frame() const { return error_.empty() && !buf_.empty(); }

 private:
  std::vector<std::uint8_t> buf_;  ///< unconsumed bytes (compacted on pop).
  std::size_t pos_ = 0;            ///< consumed prefix of buf_.
  bool hello_due_ = false;         ///< next frame uses the frozen HELLO layout.
  std::string error_;
};

// --- write-side coalescing ---------------------------------------------------

/// One gather segment: a view into a queued frame's unsent bytes.  Portable
/// stand-in for struct iovec so this layer (and its every-byte-offset tests)
/// never touches <sys/uio.h>; the transport casts slices into its iovec array
/// at the sendmsg call site.
struct IoSlice {
  const std::uint8_t* data{nullptr};
  std::size_t len{0};
};

/// The send-side frame queue of one peer link: whole frames go in, gather
/// lists capped by (max_frames, max_bytes) come out, and consume() advances
/// past whatever the kernel actually accepted — including a partial write
/// that stops at ANY byte offset inside or across frame boundaries (the next
/// gather resumes mid-frame).  Frames are never re-encoded, split or merged:
/// coalescing is purely how many of the SAME snowkit-wire-v10 bytes share one
/// syscall, which frame_roundtrip_test proves by comparing gathered bytes
/// against the flat reference stream.
///
/// Separable from the transport on purpose: no fds, no syscalls — just the
/// bookkeeping whose edge cases (partial resume, iovec-cap overflow,
/// reconnect recovery) need exhaustive testing.
class WriteCoalescer {
 public:
  /// Both caps must be positive (TransportOptions::validate enforces the
  /// real bounds; this layer just honors them).
  void set_limits(std::size_t max_frames, std::size_t max_bytes) {
    max_frames_ = max_frames;
    max_bytes_ = max_bytes;
  }

  bool empty() const { return q_.empty(); }
  std::size_t pending_bytes() const { return bytes_; }
  std::size_t pending_frames() const { return q_.size(); }
  /// True when the front frame is partially written — a connection drop now
  /// loses that frame (its tail is meaningless to a fresh peer decoder).
  bool front_partially_written() const { return off_ > 0; }

  /// Queues one whole frame (length prefix included).  Empty frames are
  /// meaningless at this layer and ignored.
  void push(std::vector<std::uint8_t>&& frame) {
    if (frame.empty()) return;
    bytes_ += frame.size();
    q_.push_back(std::move(frame));
  }

  /// Fills `out` with the next gather list: at most max_iov and the
  /// configured max_frames slices, stopping at max_bytes — but always at
  /// least one slice when non-empty, so an oversized frame still makes
  /// progress.  The first slice starts at the front frame's unsent offset.
  std::size_t gather(IoSlice* out, std::size_t max_iov) const;

  /// Advances past `n` bytes the kernel accepted (n may end anywhere).
  /// Returns the number of frames fully written; their buffers are moved
  /// into `*spent` (capacity recycling) when it is non-null.
  std::size_t consume(std::size_t n, std::vector<std::vector<std::uint8_t>>* spent = nullptr);

  /// Connection-drop recovery: returns every frame the socket never touched
  /// (oldest first) and resets.  The partially-written front frame, if any,
  /// is dropped — its prefix is on the dead socket and cannot be resent.
  std::deque<std::vector<std::uint8_t>> take_unsent();

 private:
  std::deque<std::vector<std::uint8_t>> q_;  ///< whole frames, send order.
  std::size_t off_ = 0;                      ///< sent bytes of q_.front().
  std::size_t bytes_ = 0;                    ///< unsent bytes across q_.
  std::size_t max_frames_ = 64;
  std::size_t max_bytes_ = 1u << 20;
};

// --- frame builders (append to an outbox buffer) ----------------------------

/// The handshake in the frozen v1-v10 HELLO layout (only kWireVersion moves).
void append_hello(std::vector<std::uint8_t>& out, std::uint64_t process_index);
/// Frames one routed message; the Message bytes are produced by
/// encode_message_into — the exact bytes ThreadRuntime mailboxes carry.
void append_msg(std::vector<std::uint8_t>& out, NodeId from, NodeId to, const Message& m);
/// The zero-length frame: one 0x00 byte.
void append_shutdown(std::vector<std::uint8_t>& out);

// --- frame body parsers (untrusted until noted) -----------------------------

struct HelloBody {
  std::uint64_t process_index{0};
};

/// Validates magic + version; false (with `err`) on any malformation.
bool parse_hello(const std::vector<std::uint8_t>& body, HelloBody& out, std::string& err);

struct MsgHeader {
  NodeId from{kInvalidNode};
  NodeId to{kInvalidNode};
  std::size_t payload_offset{0};  ///< where the encoded Message starts in body.
};

/// Parses the routing header only (bounds-checked, error-returning).
bool parse_msg_header(const std::vector<std::uint8_t>& body, MsgHeader& out, std::string& err);

/// Decodes the Message of a parsed MSG frame, aborting on malformation —
/// for tests and tools operating on bytes they encoded themselves.  The
/// transport does NOT use this on live traffic: NetRuntime workers decode
/// network frames with try_decode_message and drop the connection instead.
Message decode_msg_payload(const std::vector<std::uint8_t>& body, std::size_t payload_offset);

// --- socket helpers (Linux; -1/err on failure, no exceptions) ---------------

/// True when this build carries the TCP transport (Linux epoll).  Non-Linux
/// builds keep the framing layer (it is pure) but NetRuntime refuses to
/// construct; tests skip via this flag.
bool transport_supported();

/// Listening socket on host:port (SO_REUSEADDR, nonblocking, CLOEXEC).
int tcp_listen(const std::string& host, std::uint16_t port, std::string& err);

/// Starts a nonblocking connect; the fd completes (or fails) via epoll
/// EPOLLOUT + SO_ERROR.  TCP_NODELAY is set: the transport's frames are
/// small and latency-bound, Nagle would serialize round trips.
int tcp_connect_start(const std::string& host, std::uint16_t port, std::string& err);

/// Accepts one pending connection (nonblocking, CLOEXEC, TCP_NODELAY).
int tcp_accept(int listen_fd, std::string& err);

/// Binds port 0 on 127.0.0.1 and returns the kernel-chosen free port
/// (the socket is closed again; benches/tests use this to pick fleet ports).
std::uint16_t pick_free_port();

/// n distinct free ports: all probe sockets are held open until every port
/// is chosen, so one fleet can never be handed the same port twice.
std::vector<std::uint16_t> pick_free_ports(std::size_t n);

}  // namespace snowkit::net

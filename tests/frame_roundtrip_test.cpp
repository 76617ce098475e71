// snowkit-wire-v7 framing at the byte boundary: encoded frames must survive
// arbitrary TCP segmentation (split at EVERY byte offset and reassembled
// through the NetRuntime framing decoder), and malformed streams — garbage
// prefixes, truncations, absurd lengths — must surface as decoder ERRORS,
// never aborts: a TCP peer is untrusted input until its HELLO checks out.
// The reference stream is what an accepted connection carries: one HELLO in
// the frozen v1-v7 layout, then compact `uv(len) body` frames.
#include "runtime/socket.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "msg/codec.hpp"

namespace snowkit {
namespace {

using net::Frame;
using net::FrameDecoder;
using net::FrameType;

/// A payload corpus spanning the codec's interesting shapes: fixed fields,
/// gap-coded object sets, delta-coded version lists and nested histories.
std::vector<Message> corpus() {
  std::vector<Message> msgs;
  msgs.push_back(Message{7, WriteValReq{WriteKey{3, 1}, {{2, -40}, {5, 1}}}});
  msgs.push_back(Message{8, InfoReaderReq{WriteKey{1, 0}, {0, 2, 3, 6, 8, 70'000}}});
  msgs.push_back(Message{8, UpdateCoorReq{WriteKey{4, 2}, {1, 130}}});
  msgs.push_back(Message{9, UpdateCoorAck{12, 5}});
  msgs.push_back(Message{10, GetTagArrReq{{0, 5, 130, 4095}, 17}});
  GetTagArrResp tagarr;
  tagarr.tag = 900;
  tagarr.watermark = 890;
  tagarr.entries = {
      TagArrEntry{5, WriteKey{5, 0}, {ListedKey{1, WriteKey{1, 0}}, ListedKey{4, WriteKey{2, 1}}}},
      TagArrEntry{130, WriteKey{9, 2}, {}}, TagArrEntry{4095, kInitialKey, {}}};
  msgs.push_back(Message{10, tagarr});
  msgs.push_back(Message{10, AdaptTagArrResp{900, 890, {TagArrEntry{5, WriteKey{5, 0}, {}}},
                                             3, 0, {0, 3, 5, 6, 11}, {}}});
  msgs.push_back(Message{10, AdaptTagArrResp{900, 890, {TagArrEntry{5, WriteKey{5, 0}, {}}},
                                             9, 7, {12}, {3, 4000}}});
  const std::vector<Version> versions{Version{kInitialKey, 0}, Version{WriteKey{2, 0}, 77},
                                      Version{WriteKey{6, 3}, -1}};
  msgs.push_back(Message{11, ReadValBatchReq{890, {{5, WriteKey{5, 0}}, {4095, kInitialKey}}}});
  msgs.push_back(Message{11, ReadValsBatchReq{0, {0, 130, 70'000}}});
  msgs.push_back(Message{11, ReadValsBatchReq{4, {0, 5}, GetTagArrReq{{0, 5, 130, 4095}, 3}}});
  msgs.push_back(Message{11, ReadValsBatchResp{{ObjectVersions{1, versions}}, tagarr}});
  msgs.push_back(Message{11, ReadValsBatchResp{{ObjectVersions{5, {}}},
                                               AdaptTagArrResp{900, 890, {}, 9, 7, {12}, {3}}}});
  msgs.push_back(Message{kInvalidTxn, ReadDoneReq{42}});
  msgs.push_back(Message{13, EigerReadResp{0, 123, 4, 9, 17}});
  return msgs;
}

/// The reference stream: HELLO, the whole corpus as MSG frames, SHUTDOWN.
/// Decode it with FrameDecoder::accepting().
std::vector<std::uint8_t> reference_stream(const std::vector<Message>& msgs) {
  std::vector<std::uint8_t> bytes;
  net::append_hello(bytes, 3);
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    net::append_msg(bytes, static_cast<NodeId>(10 + i), static_cast<NodeId>(i), msgs[i]);
  }
  net::append_shutdown(bytes);
  return bytes;
}

struct Decoded {
  std::vector<Message> msgs;
  std::vector<std::pair<NodeId, NodeId>> routes;
  int hellos = 0;
  int shutdowns = 0;
};

/// Drains every complete frame; fails the test on a decoder error.
void drain(FrameDecoder& dec, Decoded& out) {
  Frame f;
  while (true) {
    const auto st = dec.next(f);
    if (st == FrameDecoder::Status::kNeedMore) return;
    ASSERT_EQ(st, FrameDecoder::Status::kFrame) << dec.error();
    if (f.type == FrameType::kHello) {
      net::HelloBody hello;
      std::string err;
      ASSERT_TRUE(net::parse_hello(f.body, hello, err)) << err;
      EXPECT_EQ(hello.process_index, 3u);
      ++out.hellos;
    } else if (f.type == FrameType::kMsg) {
      net::MsgHeader hdr;
      std::string err;
      ASSERT_TRUE(net::parse_msg_header(f.body, hdr, err)) << err;
      out.routes.emplace_back(hdr.from, hdr.to);
      out.msgs.push_back(net::decode_msg_payload(f.body, hdr.payload_offset));
    } else {
      ++out.shutdowns;
    }
  }
}

TEST(FrameRoundtrip, SplitAtEveryByteOffset) {
  const auto msgs = corpus();
  const auto bytes = reference_stream(msgs);
  for (std::size_t split = 0; split <= bytes.size(); ++split) {
    auto dec = FrameDecoder::accepting();
    Decoded out;
    dec.feed(bytes.data(), split);
    drain(dec, out);
    if (HasFatalFailure()) return;
    dec.feed(bytes.data() + split, bytes.size() - split);
    drain(dec, out);
    if (HasFatalFailure()) return;
    ASSERT_EQ(out.hellos, 1) << "split at " << split;
    ASSERT_EQ(out.shutdowns, 1) << "split at " << split;
    ASSERT_EQ(out.msgs.size(), msgs.size()) << "split at " << split;
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      EXPECT_EQ(out.msgs[i], msgs[i]) << "split at " << split << ", msg " << i;
      EXPECT_EQ(out.routes[i].first, static_cast<NodeId>(10 + i));
      EXPECT_EQ(out.routes[i].second, static_cast<NodeId>(i));
    }
    EXPECT_FALSE(dec.mid_frame());
  }
}

TEST(FrameRoundtrip, ByteAtATime) {
  const auto msgs = corpus();
  const auto bytes = reference_stream(msgs);
  auto dec = FrameDecoder::accepting();
  Decoded out;
  for (const std::uint8_t b : bytes) {
    dec.feed(&b, 1);
    drain(dec, out);
    if (HasFatalFailure()) return;
  }
  EXPECT_EQ(out.msgs.size(), msgs.size());
  EXPECT_EQ(out.hellos, 1);
  EXPECT_EQ(out.shutdowns, 1);
}

TEST(FrameRoundtrip, TruncatedPrefixNeverErrorsAndNeverCompletes) {
  const auto msgs = corpus();
  const auto bytes = reference_stream(msgs);
  // Every strict prefix of a valid stream is "need more", possibly with a
  // partial frame pending — never an error, never a phantom extra frame.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    auto dec = FrameDecoder::accepting();
    dec.feed(bytes.data(), len);
    Frame f;
    std::size_t frames = 0;
    while (dec.next(f) == FrameDecoder::Status::kFrame) ++frames;
    ASSERT_FALSE(dec.failed()) << "prefix of length " << len << ": " << dec.error();
    ASSERT_LE(frames, msgs.size() + 2);
    if (len < bytes.size()) ASSERT_LT(frames, msgs.size() + 2);
  }
}

TEST(FrameRoundtrip, GarbagePrefixErrorsNotCrashes) {
  // A desynced stream usually presents as an absurd length prefix: here a
  // length varint that never ends.
  {
    FrameDecoder dec;
    const std::vector<std::uint8_t> garbage{0xFF, 0xFF, 0xFF, 0xFF, 0x00};
    dec.feed(garbage);
    Frame f;
    EXPECT_EQ(dec.next(f), FrameDecoder::Status::kError);
    EXPECT_TRUE(dec.failed());
    // Terminal: feeding valid bytes afterwards cannot resurrect the stream.
    std::vector<std::uint8_t> valid;
    net::append_shutdown(valid);
    dec.feed(valid);
    EXPECT_EQ(dec.next(f), FrameDecoder::Status::kError);
  }
  {
    auto dec = FrameDecoder::accepting();  // zero-length frame where a HELLO is due
    const std::vector<std::uint8_t> zero{0x00, 0x00, 0x00, 0x00};
    dec.feed(zero);
    Frame f;
    EXPECT_EQ(dec.next(f), FrameDecoder::Status::kError);
  }
  {
    auto dec = FrameDecoder::accepting();  // HELLO layout, unknown frame type
    const std::vector<std::uint8_t> unknown{0x01, 0x00, 0x00, 0x00, 0x7F};
    dec.feed(unknown);
    Frame f;
    EXPECT_EQ(dec.next(f), FrameDecoder::Status::kError);
  }
  // Seeded random garbage, through both decoder kinds: the decoder must
  // error or want more — never pop a frame that then parses as a valid
  // HELLO (magic + version gate), and never crash.
  Xoshiro256 rng(0xC0FFEE);
  for (int round = 0; round < 400; ++round) {
    auto dec = round % 2 == 0 ? FrameDecoder::accepting() : FrameDecoder{};
    std::vector<std::uint8_t> junk(1 + rng.next() % 64);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next());
    dec.feed(junk);
    Frame f;
    while (dec.next(f) == FrameDecoder::Status::kFrame) {
      if (f.type == FrameType::kHello) {
        net::HelloBody hello;
        std::string err;
        EXPECT_FALSE(net::parse_hello(f.body, hello, err) && hello.process_index > 1000)
            << "random junk parsed as a plausible hello";
      }
    }
  }
}

TEST(FrameRoundtrip, ZeroLengthFrameIsShutdown) {
  // Since v7 SHUTDOWN is the empty frame: one 0x00 byte, no body.
  std::vector<std::uint8_t> bytes;
  net::append_shutdown(bytes);
  ASSERT_EQ(bytes, std::vector<std::uint8_t>{0x00});
  FrameDecoder dec;
  dec.feed(bytes);
  Frame f;
  ASSERT_EQ(dec.next(f), FrameDecoder::Status::kFrame);
  EXPECT_EQ(f.type, FrameType::kShutdown);
  EXPECT_TRUE(f.body.empty());
  EXPECT_EQ(dec.next(f), FrameDecoder::Status::kNeedMore);
  EXPECT_FALSE(dec.mid_frame());
}

TEST(FrameRoundtrip, TruncatedLengthVarintNeedsMore) {
  // 1-3 continuation bytes are a length still arriving, not an error.
  for (std::size_t n = 1; n <= 3; ++n) {
    FrameDecoder dec;
    const std::vector<std::uint8_t> prefix(n, 0x80);
    dec.feed(prefix);
    Frame f;
    EXPECT_EQ(dec.next(f), FrameDecoder::Status::kNeedMore) << n << " bytes";
    EXPECT_FALSE(dec.failed());
    EXPECT_TRUE(dec.mid_frame());
  }
}

TEST(FrameRoundtrip, FiveByteLengthVarintIsAnError) {
  // kMaxFrameBytes fits 4 varint bytes, so a 4th continuation bit is
  // already corrupt — the 5th byte is never waited for.
  {
    FrameDecoder dec;
    dec.feed(std::vector<std::uint8_t>{0x80, 0x80, 0x80, 0x80, 0x00});
    Frame f;
    EXPECT_EQ(dec.next(f), FrameDecoder::Status::kError);
    EXPECT_NE(dec.error().find("varint"), std::string::npos) << dec.error();
  }
  {
    FrameDecoder dec;
    dec.feed(std::vector<std::uint8_t>{0x81, 0x80, 0x80, 0x80});
    Frame f;
    EXPECT_EQ(dec.next(f), FrameDecoder::Status::kError);
  }
}

TEST(FrameRoundtrip, LengthAboveMaxFrameBytesIsAnError) {
  const auto length_varint = [](std::size_t len) {
    std::vector<std::uint8_t> out;
    while (len >= 0x80) {
      out.push_back(static_cast<std::uint8_t>(len) | 0x80);
      len >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(len));
    return out;
  };
  {
    FrameDecoder dec;  // exactly the cap: a legal length, body still due
    dec.feed(length_varint(net::kMaxFrameBytes));
    Frame f;
    EXPECT_EQ(dec.next(f), FrameDecoder::Status::kNeedMore);
  }
  {
    FrameDecoder dec;
    const auto over = length_varint(net::kMaxFrameBytes + 1);
    ASSERT_EQ(over.size(), net::kMaxFrameLenBytes);
    dec.feed(over);
    Frame f;
    EXPECT_EQ(dec.next(f), FrameDecoder::Status::kError);
    EXPECT_NE(dec.error().find("exceeds kMaxFrameBytes"), std::string::npos) << dec.error();
  }
}

TEST(FrameRoundtrip, CompactFrameWhereHelloIsDueIsRefused) {
  // An accepted connection must open with the frozen HELLO layout.  A
  // compact MSG frame in its place fails the u32le length or type checks.
  {
    std::vector<std::uint8_t> bytes;
    net::append_msg(bytes, 9, 0, Message{5, SimpleReadReq{1}});
    auto dec = FrameDecoder::accepting();
    dec.feed(bytes);
    Frame f;
    EXPECT_EQ(dec.next(f), FrameDecoder::Status::kError);
  }
  {
    // A SHUTDOWN before the HELLO is no SHUTDOWN: its zero byte is the
    // start of a u32le length, and a zero length is refused.
    auto dec = FrameDecoder::accepting();
    std::vector<std::uint8_t> bytes;
    net::append_shutdown(bytes);
    dec.feed(bytes);
    Frame f;
    EXPECT_EQ(dec.next(f), FrameDecoder::Status::kNeedMore);
    dec.feed(std::vector<std::uint8_t>{0x00, 0x00, 0x00});
    EXPECT_EQ(dec.next(f), FrameDecoder::Status::kError);
  }
  {
    // The dialer's decoder never expects a HELLO: the HELLO layout read as a
    // compact frame is a 7-byte MSG frame, not a handshake.
    std::vector<std::uint8_t> bytes;
    net::append_hello(bytes, 1);
    FrameDecoder dec;
    dec.feed(bytes);
    Frame f;
    ASSERT_EQ(dec.next(f), FrameDecoder::Status::kFrame);
    EXPECT_EQ(f.type, FrameType::kMsg);
  }
}

TEST(FrameRoundtrip, BytesAfterAnErrorStayTerminal) {
  std::vector<std::uint8_t> valid;
  net::append_msg(valid, 9, 0, Message{5, SimpleReadReq{1}});
  net::append_shutdown(valid);
  for (const bool accepting : {false, true}) {
    auto dec = accepting ? FrameDecoder::accepting() : FrameDecoder{};
    dec.feed(std::vector<std::uint8_t>{0xFF, 0xFF, 0xFF, 0xFF, 0xFF});
    Frame f;
    ASSERT_EQ(dec.next(f), FrameDecoder::Status::kError);
    const std::string first = dec.error();
    std::vector<std::uint8_t> hello;
    net::append_hello(hello, 1);
    dec.feed(hello);
    dec.feed(valid);
    EXPECT_EQ(dec.next(f), FrameDecoder::Status::kError);
    EXPECT_EQ(dec.next(f), FrameDecoder::Status::kError);
    EXPECT_EQ(dec.error(), first);
    EXPECT_FALSE(dec.mid_frame());
  }
}

TEST(FrameRoundtrip, ValidFrameThenGarbageDeliversThenErrors) {
  std::vector<std::uint8_t> bytes;
  const Message m{5, SimpleReadReq{1}};
  net::append_msg(bytes, 9, 0, m);
  bytes.insert(bytes.end(), {0xFF, 0xFF, 0xFF, 0x7F, 0x00});  // absurd length
  FrameDecoder dec;
  dec.feed(bytes);
  Frame f;
  ASSERT_EQ(dec.next(f), FrameDecoder::Status::kFrame);
  net::MsgHeader hdr;
  std::string err;
  ASSERT_TRUE(net::parse_msg_header(f.body, hdr, err));
  EXPECT_EQ(net::decode_msg_payload(f.body, hdr.payload_offset), m);
  EXPECT_EQ(dec.next(f), FrameDecoder::Status::kError);
}

TEST(FrameRoundtrip, MsgHeaderParsersRejectMalformedBodies) {
  net::MsgHeader hdr;
  std::string err;
  EXPECT_FALSE(net::parse_msg_header({}, hdr, err));
  EXPECT_FALSE(net::parse_msg_header({0x80}, hdr, err));        // truncated varint
  EXPECT_FALSE(net::parse_msg_header({0x01, 0x02}, hdr, err));  // header, no payload
  // A `from` varint past 64 bits: its 10th byte's bit 1 would land at bit
  // 64, so it is malformed, not `from = 0`.
  std::vector<std::uint8_t> overflow(9, 0x80);
  overflow.insert(overflow.end(), {0x02, 0x01, 0x00});
  EXPECT_FALSE(net::parse_msg_header(overflow, hdr, err));
  net::HelloBody hello;
  EXPECT_FALSE(net::parse_hello({}, hello, err));
  EXPECT_FALSE(net::parse_hello({0x53, 0x4E, 0x57, 0x4B}, hello, err));  // magic only
  // Wrong wire version must be rejected, not silently accepted.
  std::vector<std::uint8_t> v11{0x53, 0x4E, 0x57, 0x4B, 0x0B, 0x00};
  EXPECT_FALSE(net::parse_hello(v11, hello, err));
  EXPECT_NE(err.find("wire version"), std::string::npos);
  // A version varint whose low bits say 10 but whose 10th byte overflows 64
  // bits is malformed, not version 10.
  std::vector<std::uint8_t> v10_overflow{0x53, 0x4E, 0x57, 0x4B, 0x8A};
  v10_overflow.insert(v10_overflow.end(), 8, 0x80);
  v10_overflow.insert(v10_overflow.end(), {0x02, 0x00});
  EXPECT_FALSE(net::parse_hello(v10_overflow, hello, err));
  v10_overflow[v10_overflow.size() - 2] = 0x00;  // the same bytes, 64 bits wide
  EXPECT_TRUE(net::parse_hello(v10_overflow, hello, err)) << err;
}

TEST(FrameRoundtrip, V8PeerRefusesOlderHellos) {
  // v1 peers ship k-wide tag arrays, v2 peers k-bit write masks and mode
  // tables, v3 peers one write-val, ack and finalize per object, v4 peers
  // one read-val or read-vals per object and unsorted read batches, v5
  // peers read-vals-batches without the coor byte, v1-v6 peers frame with a
  // u32le length and a type byte, and v1-v7 peers write the envelope txn
  // unshifted and every field of every replication record, and v1-v8 peers
  // write adaptive's steady mode state as a 2-varint delta, and v1-v9 peers
  // a write-val without its ack-node head — all of which v10 decodes as
  // garbage or as another txn: the HELLO, whose layout never changes, must
  // refuse them by name before any compact frame is parsed.
  ASSERT_EQ(net::kWireVersion, 10u);
  std::vector<std::uint8_t> bytes;
  net::append_hello(bytes, 1);
  // The same HELLO with the version varint (byte 9: after the u32le
  // length, the type byte and the magic) rewritten to 1 through 9, read by
  // an accepting decoder exactly as a live connection's first bytes.
  ASSERT_EQ(bytes[9], 0x0A);
  for (const std::uint8_t old : {0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09}) {
    auto stale = bytes;
    stale[9] = old;
    auto dec = FrameDecoder::accepting();
    dec.feed(stale);
    Frame f;
    ASSERT_EQ(dec.next(f), FrameDecoder::Status::kFrame);
    ASSERT_EQ(f.type, FrameType::kHello);
    net::HelloBody hello;
    std::string err;
    EXPECT_FALSE(net::parse_hello(f.body, hello, err));
    EXPECT_EQ(err, "wire version " + std::to_string(old) + " (expected 10)");
  }
  auto dec = FrameDecoder::accepting();
  dec.feed(bytes);
  Frame f;
  ASSERT_EQ(dec.next(f), FrameDecoder::Status::kFrame);
  net::HelloBody hello;
  std::string err;
  ASSERT_TRUE(net::parse_hello(f.body, hello, err)) << err;
  EXPECT_EQ(hello.process_index, 1u);
}

TEST(FrameRoundtrip, FramedCodecBytesMatchEncodeMessage) {
  // The MSG payload is the codec's output verbatim — the transport adds
  // framing, never re-encodes (docs/WIRE.md freezes this).
  const auto msgs = corpus();
  for (const Message& m : msgs) {
    std::vector<std::uint8_t> framed;
    net::append_msg(framed, 1, 2, m);
    const auto codec_bytes = encode_message(m);
    // The whole envelope of a frame under 128 bytes: uv(len) uv(from) uv(to).
    if (codec_bytes.size() + 2 < 0x80) EXPECT_EQ(framed.size(), codec_bytes.size() + 3);
    ASSERT_GE(framed.size(), codec_bytes.size());
    EXPECT_TRUE(std::equal(codec_bytes.begin(), codec_bytes.end(),
                           framed.end() - static_cast<std::ptrdiff_t>(codec_bytes.size())));
  }
}

// --- write-side coalescing ---------------------------------------------------
//
// WriteCoalescer is the transport's send queue; coalescing must be invisible
// on the wire.  The proof obligation (docs/WIRE.md): the bytes that come out
// of gather()/consume() equal the flat reference stream byte-for-byte, no
// matter where partial writes land or how tight the iovec caps are.

using net::IoSlice;
using net::WriteCoalescer;

/// The corpus as individual whole frames — what NetRuntime queues per send.
std::vector<std::vector<std::uint8_t>> corpus_frames(const std::vector<Message>& msgs) {
  std::vector<std::vector<std::uint8_t>> frames;
  frames.emplace_back();
  net::append_hello(frames.back(), 3);
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    frames.emplace_back();
    net::append_msg(frames.back(), static_cast<NodeId>(10 + i), static_cast<NodeId>(i), msgs[i]);
  }
  frames.emplace_back();
  net::append_shutdown(frames.back());
  return frames;
}

/// Simulates the kernel accepting exactly `budget` bytes: gather, copy the
/// accepted prefix onto `wire`, consume — the transport's sendmsg loop with a
/// miserly socket.
void accept_bytes(WriteCoalescer& wq, std::size_t budget, std::size_t max_iov,
                  std::vector<std::uint8_t>& wire) {
  std::vector<IoSlice> slices(max_iov);
  while (budget > 0 && !wq.empty()) {
    const std::size_t cnt = wq.gather(slices.data(), max_iov);
    ASSERT_GT(cnt, 0u) << "non-empty queue gathered nothing";
    std::size_t taken = 0;
    for (std::size_t i = 0; i < cnt && taken < budget; ++i) {
      const std::size_t m = std::min(slices[i].len, budget - taken);
      wire.insert(wire.end(), slices[i].data, slices[i].data + m);
      taken += m;
    }
    wq.consume(taken);
    budget -= taken;
  }
}

TEST(WriteCoalescerTest, PartialWriteResumesAtEveryByteOffset) {
  const auto msgs = corpus();
  const auto frames = corpus_frames(msgs);
  const auto reference = reference_stream(msgs);
  for (std::size_t split = 0; split <= reference.size(); ++split) {
    WriteCoalescer wq;
    for (const auto& f : frames) wq.push(std::vector<std::uint8_t>(f));
    ASSERT_EQ(wq.pending_bytes(), reference.size());
    std::vector<std::uint8_t> wire;
    // First write stops at `split` — inside a length prefix, a routing
    // header, a payload, or exactly on a frame boundary — then the link
    // drains.
    accept_bytes(wq, split, 8, wire);
    if (HasFatalFailure()) return;
    accept_bytes(wq, reference.size() - split, 8, wire);
    if (HasFatalFailure()) return;
    ASSERT_TRUE(wq.empty()) << "split at " << split;
    ASSERT_EQ(wq.pending_bytes(), 0u) << "split at " << split;
    ASSERT_EQ(wire, reference) << "split at " << split;
    // And the stream a peer decoder sees is untouched by coalescing.
    auto dec = FrameDecoder::accepting();
    Decoded out;
    dec.feed(wire);
    drain(dec, out);
    if (HasFatalFailure()) return;
    ASSERT_EQ(out.msgs.size(), msgs.size()) << "split at " << split;
    for (std::size_t i = 0; i < msgs.size(); ++i) EXPECT_EQ(out.msgs[i], msgs[i]);
  }
}

TEST(WriteCoalescerTest, ByteAtATimeKernelStillYieldsTheReferenceStream) {
  const auto msgs = corpus();
  const auto reference = reference_stream(msgs);
  WriteCoalescer wq;
  for (auto& f : corpus_frames(msgs)) wq.push(std::move(f));
  std::vector<std::uint8_t> wire;
  while (!wq.empty()) {
    accept_bytes(wq, 1, 4, wire);
    if (HasFatalFailure()) return;
  }
  EXPECT_EQ(wire, reference);
}

TEST(WriteCoalescerTest, GatherHonorsFrameIovAndByteCapsWithoutStalling) {
  // The coalescer never looks inside a frame, so any 5 bytes will do.
  auto five_byte_frame = [] { return std::vector<std::uint8_t>(5, 0x5A); };
  WriteCoalescer wq;
  for (int i = 0; i < 100; ++i) wq.push(five_byte_frame());
  std::vector<IoSlice> slices(128);

  // Frame cap: 100 queued, limits say 8 per syscall.
  wq.set_limits(/*max_frames=*/8, /*max_bytes=*/1u << 20);
  EXPECT_EQ(wq.gather(slices.data(), slices.size()), 8u);
  // The caller's iovec array can be smaller still (IOV_MAX clamp).
  EXPECT_EQ(wq.gather(slices.data(), 3), 3u);

  // Byte cap: 12 bytes admits two whole 5-byte frames, never a torn third.
  wq.set_limits(/*max_frames=*/64, /*max_bytes=*/12);
  EXPECT_EQ(wq.gather(slices.data(), slices.size()), 2u);

  // A frame bigger than max_bytes must still go out alone — the byte cap
  // never blocks the first slice, else the queue would stall forever.
  wq.set_limits(/*max_frames=*/64, /*max_bytes=*/4);
  ASSERT_EQ(wq.gather(slices.data(), slices.size()), 1u);
  EXPECT_EQ(slices[0].len, 5u);

  // Under the tightest caps the queue still drains completely and emits
  // every byte exactly once.
  std::vector<std::uint8_t> wire;
  while (!wq.empty()) {
    accept_bytes(wq, 3, 1, wire);
    if (HasFatalFailure()) return;
  }
  EXPECT_EQ(wire.size(), 100u * 5u);
  EXPECT_EQ(wq.pending_frames(), 0u);
}

TEST(WriteCoalescerTest, ConsumeReturnsSpentBuffersForRecycling) {
  const auto msgs = corpus();
  auto frames = corpus_frames(msgs);
  WriteCoalescer wq;
  std::size_t total = 0;
  for (const auto& f : frames) {
    total += f.size();
    wq.push(std::vector<std::uint8_t>(f));
  }
  std::vector<IoSlice> slices(frames.size());
  ASSERT_EQ(wq.gather(slices.data(), slices.size()), frames.size());
  std::vector<std::vector<std::uint8_t>> spent;
  EXPECT_EQ(wq.consume(total, &spent), frames.size());
  ASSERT_EQ(spent.size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) EXPECT_EQ(spent[i], frames[i]);
  EXPECT_TRUE(wq.empty());
}

TEST(WriteCoalescerTest, TakeUnsentDropsOnlyThePartiallyWrittenFront) {
  const auto msgs = corpus();
  const auto frames = corpus_frames(msgs);
  {
    // Connection dies 3 bytes into frame 1: frame 0 is fully on the old
    // socket, frame 1's prefix died with it, frames 2.. must be requeued.
    WriteCoalescer wq;
    for (const auto& f : frames) wq.push(std::vector<std::uint8_t>(f));
    std::vector<std::uint8_t> wire;
    accept_bytes(wq, frames[0].size() + 3, 8, wire);
    if (HasFatalFailure()) return;
    ASSERT_TRUE(wq.front_partially_written());
    const auto unsent = wq.take_unsent();
    ASSERT_EQ(unsent.size(), frames.size() - 2);
    for (std::size_t i = 0; i < unsent.size(); ++i) EXPECT_EQ(unsent[i], frames[i + 2]);
    EXPECT_TRUE(wq.empty());
    EXPECT_EQ(wq.pending_bytes(), 0u);
    EXPECT_FALSE(wq.front_partially_written());
  }
  {
    // Death exactly on a frame boundary: nothing is torn, nothing dropped.
    WriteCoalescer wq;
    for (const auto& f : frames) wq.push(std::vector<std::uint8_t>(f));
    std::vector<std::uint8_t> wire;
    accept_bytes(wq, frames[0].size(), 8, wire);
    if (HasFatalFailure()) return;
    ASSERT_FALSE(wq.front_partially_written());
    const auto unsent = wq.take_unsent();
    ASSERT_EQ(unsent.size(), frames.size() - 1);
    for (std::size_t i = 0; i < unsent.size(); ++i) EXPECT_EQ(unsent[i], frames[i + 1]);
  }
}

}  // namespace
}  // namespace snowkit

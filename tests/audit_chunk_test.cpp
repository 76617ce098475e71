// snowkit-audit-chunk-v1 codec: roundtrip fidelity plus the torn-chunk
// contract — a chunk truncated at ANY byte offset, or corrupted at any
// position, must be rejected with std::invalid_argument before parsing.
#include "audit/chunk.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>

#include "common/buffer.hpp"

namespace snowkit::audit {
namespace {

ChunkMeta test_meta() {
  ChunkMeta meta;
  meta.process_index = 2;
  meta.chunk_seq = 5;
  meta.protocol = "algo-b";
  meta.num_servers = 3;
  meta.fleet_text = "protocol algo-b\nobjects 2\n";
  return meta;
}

std::vector<RawEvent> test_events() {
  return {
      {EventKind::kSend, 1'000, 7, 1, 42, "SimpleReadReq", 31, 0},
      {EventKind::kRecv, 1'200, 7, 1, 42, "SimpleReadResp", 0, 1},
      // kInvalidTxn must survive the +1 wraparound encoding.
      {EventKind::kSend, 1'500, 7, 2, kInvalidTxn, "Shutdown", 9, 0},
  };
}

History test_history() {
  History h;
  h.num_objects = 2;
  TxnRecord t;
  t.id = 42;
  t.client = 7;
  t.is_read = true;
  t.invoke_ns = 900;
  t.respond_ns = 1'300;
  t.complete = true;
  t.invoke_order = 1;
  t.respond_order = 2;
  t.reads = {{0, 5}, {1, 6}};
  t.tag = 3;
  t.rounds = 1;
  t.max_versions = 2;
  h.txns.push_back(t);
  return h;
}

std::vector<std::uint8_t> sealed_chunk(bool with_history) {
  ChunkWriter w(test_meta());
  const auto ev = test_events();
  w.add_group(/*ring_uid=*/11, /*base_seq=*/100, ev.data(), 2);
  w.add_group(/*ring_uid=*/12, /*base_seq=*/0, ev.data() + 2, 1);
  if (with_history) w.set_history(test_history());
  return w.finish(/*drops=*/7);
}

TEST(AuditChunk, RoundTripPreservesEverything) {
  const auto bytes = sealed_chunk(/*with_history=*/true);
  const ChunkFile f = decode_chunk(bytes, "test");

  EXPECT_EQ(f.meta.process_index, 2u);
  EXPECT_EQ(f.meta.chunk_seq, 5u);
  EXPECT_EQ(f.meta.protocol, "algo-b");
  EXPECT_EQ(f.meta.num_servers, 3u);
  EXPECT_EQ(f.meta.fleet_text, "protocol algo-b\nobjects 2\n");
  EXPECT_EQ(f.drops, 7u);

  ASSERT_EQ(f.events.size(), 3u);
  const AuditEvent& e0 = f.events[0];
  EXPECT_EQ(e0.kind, EventKind::kSend);
  EXPECT_EQ(e0.time, 1'000u);
  EXPECT_EQ(e0.node, 7u);
  EXPECT_EQ(e0.peer, 1u);
  EXPECT_EQ(e0.txn, 42u);
  EXPECT_EQ(e0.payload, "SimpleReadReq");
  EXPECT_EQ(e0.bytes, 31u);
  EXPECT_EQ(e0.ring, 11u);
  EXPECT_EQ(e0.seq, 100u);
  EXPECT_EQ(f.events[1].kind, EventKind::kRecv);
  EXPECT_EQ(f.events[1].versions, 1u);
  EXPECT_EQ(f.events[1].seq, 101u);
  EXPECT_EQ(f.events[2].txn, kInvalidTxn);
  EXPECT_EQ(f.events[2].ring, 12u);
  EXPECT_EQ(f.events[2].seq, 0u);

  ASSERT_TRUE(f.history.has_value());
  ASSERT_EQ(f.history->txns.size(), 1u);
  EXPECT_EQ(f.history->num_objects, 2u);
  EXPECT_EQ(f.history->txns[0].id, 42u);
  EXPECT_TRUE(f.history->txns[0].is_read);
  EXPECT_EQ(f.history->txns[0].reads.size(), 2u);
  EXPECT_EQ(f.history->txns[0].tag, 3u);
}

TEST(AuditChunk, EmptyFinalChunkRoundTrips) {
  // close() always seals a final chunk even with no events — it carries the
  // drop totals and (for the client) the history, and its presence marks a
  // clean shutdown.
  ChunkWriter w(test_meta());
  const auto bytes = w.finish(/*drops=*/0);
  const ChunkFile f = decode_chunk(bytes, "test");
  EXPECT_TRUE(f.events.empty());
  EXPECT_FALSE(f.history.has_value());
  EXPECT_EQ(f.drops, 0u);
}

TEST(AuditChunk, TruncationAtEveryOffsetIsRejected) {
  const auto bytes = sealed_chunk(/*with_history=*/true);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<std::uint8_t> prefix(bytes.begin(), bytes.begin() + len);
    EXPECT_THROW(decode_chunk(prefix, "trunc"), std::invalid_argument)
        << "prefix of " << len << " bytes parsed";
  }
}

TEST(AuditChunk, EveryByteFlipIsRejected) {
  // Any single-byte corruption lands either in the fingerprinted payload, in
  // the fingerprint itself, or in the end magic — all three fail the seal.
  const auto bytes = sealed_chunk(/*with_history=*/false);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    auto corrupt = bytes;
    corrupt[i] ^= 0x40;
    EXPECT_THROW(decode_chunk(corrupt, "flip"), std::invalid_argument)
        << "flip at offset " << i << " parsed";
  }
}

TEST(AuditChunk, GarbageAndTrailingJunkAreRejected) {
  EXPECT_THROW(decode_chunk({}, "empty"), std::invalid_argument);
  std::vector<std::uint8_t> junk(64);
  for (std::size_t i = 0; i < junk.size(); ++i) junk[i] = static_cast<std::uint8_t>(i * 37);
  EXPECT_THROW(decode_chunk(junk, "junk"), std::invalid_argument);

  auto padded = sealed_chunk(/*with_history=*/false);
  padded.push_back(0);  // the seal must sit at EOF exactly
  EXPECT_THROW(decode_chunk(padded, "padded"), std::invalid_argument);
}

TEST(AuditChunk, OverflowingVarintIsRejectedUnderAValidSeal) {
  // A hand-built chunk of one event whose `bytes` varint is `event_bytes`,
  // sealed with a correct fingerprint so only the parser can refuse it.
  const auto chunk = [](std::vector<std::uint8_t> event_bytes) {
    BufWriter w;
    w.str(kChunkSchema);
    w.u32(0);  // process index
    w.u32(0);  // chunk seq
    w.str("algo-b");
    w.u32(1);  // servers
    w.str("");
    w.u8(1);   // ring group
    w.u64(1);  // ring uid
    w.u64(0);  // base time
    w.u64(0);  // base seq
    w.uv(1);   // one event
    w.zz(0);   // time delta
    w.uv(0);   // node
    w.uv(0);   // peer
    w.uv(1);   // txn + 1
    w.uv(0);   // payload name index
    auto out = w.take();
    out.insert(out.end(), event_bytes.begin(), event_bytes.end());
    BufWriter tail;
    tail.uv(0);  // versions
    tail.u8(0);  // kSend
    tail.u8(3);  // string table
    tail.uv(1);
    tail.str("x");
    tail.u8(0);  // trailer: events, drops
    tail.u64(1);
    tail.u64(0);
    const auto t = tail.take();
    out.insert(out.end(), t.begin(), t.end());
    seal(out);
    return out;
  };
  std::vector<std::uint8_t> u64_max(9, 0xFF);
  u64_max.push_back(0x01);
  EXPECT_NO_THROW(decode_chunk(chunk(u64_max), "max"));
  std::vector<std::uint8_t> overflow(9, 0xFF);
  overflow.push_back(0x02);
  EXPECT_THROW(decode_chunk(chunk(overflow), "overflow"), std::invalid_argument);
}

TEST(AuditChunk, FilenameFormat) {
  EXPECT_EQ(chunk_filename("audit", 0, 0), "audit.p0.000000.auditchunk");
  EXPECT_EQ(chunk_filename("audit", 3, 41), "audit.p3.000041.auditchunk");
}

TEST(AuditChunk, AtomicWriteThenLoad) {
  const auto dir = std::filesystem::temp_directory_path() / "snowkit_audit_chunk_test";
  std::filesystem::create_directories(dir);
  const auto path = (dir / chunk_filename("audit", 2, 5)).string();

  const auto bytes = sealed_chunk(/*with_history=*/true);
  write_file_atomic(path, bytes);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  const ChunkFile f = load_chunk(path);
  EXPECT_EQ(f.path, path);
  EXPECT_EQ(f.events.size(), 3u);
  EXPECT_EQ(peek_schema(read_file(path)), kChunkSchema);

  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace snowkit::audit

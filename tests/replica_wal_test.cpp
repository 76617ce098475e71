// WAL framing and replay for the replication layer (proto/replica.hpp).
//
// The recovery contract mirrors the audit chunk format (audit_chunk_test.cpp):
// a damaged HEAD fails loudly, a damaged TAIL is torn off and replay recovers
// the longest valid prefix — it must never invent or reorder records.  The
// property tests below truncate and flip bytes at EVERY offset to pin that.
#include "proto/replica.hpp"

#include <gtest/gtest.h>

#include "msg/codec.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace snowkit {
namespace {

ReplRecord insert_rec(ObjectId obj, std::uint64_t seq, NodeId writer, Value v) {
  ReplRecord r;
  r.kind = ReplRecord::kInsert;
  r.obj = obj;
  r.key = WriteKey{seq, writer};
  r.value = v;
  return r;
}

ReplRecord push_rec(std::uint64_t seq, NodeId writer, Tag position, TxnId txn,
                    std::vector<ObjectId> objs) {
  ReplRecord r;
  r.kind = ReplRecord::kListPush;
  r.key = WriteKey{seq, writer};
  r.position = position;
  r.objs = std::move(objs);
  r.txn = txn;
  r.writer = writer;
  return r;
}

ReplRecord epoch_rec(std::uint64_t epoch, bool primary) {
  ReplRecord r;
  r.kind = ReplRecord::kEpoch;
  r.epoch = epoch;
  r.primary = primary ? 1 : 0;
  return r;
}

std::vector<std::uint8_t> wal_bytes(const std::vector<ReplAppendReq>& batches) {
  std::vector<std::uint8_t> bytes(kWalMagic, kWalMagic + kWalMagicLen);
  for (const ReplAppendReq& b : batches) {
    const auto frame = wal_frame_batch(b);
    bytes.insert(bytes.end(), frame.begin(), frame.end());
  }
  return bytes;
}

/// A realistic WAL: a boot-time epoch marker, two record batches, a role
/// change (takeover), and one batch from the new lineage.  kEpoch markers
/// carry first_seq = current log size but consume no sequence numbers.  The
/// List pushes carry their WRITEs' object sets, multi-byte gaps included.
std::vector<ReplAppendReq> sample_batches() {
  return {
      ReplAppendReq{0, 0, {epoch_rec(0, false)}},
      ReplAppendReq{0, 0, {insert_rec(0, 1, 10, 111), insert_rec(1, 1, 10, 222)}},
      ReplAppendReq{0, 2, {push_rec(1, 10, 1, 900, {0, 1, 70'000})}},
      ReplAppendReq{1, 3, {epoch_rec(1, true)}},
      ReplAppendReq{1, 3, {insert_rec(0, 2, 11, 333), insert_rec(2, 2, 11, 444),
                           push_rec(2, 11, 2, 901, {0, 2})}},
  };
}

std::vector<ReplRecord> flatten_non_epoch(const std::vector<ReplAppendReq>& batches) {
  std::vector<ReplRecord> out;
  for (const ReplAppendReq& b : batches)
    for (const ReplRecord& r : b.records)
      if (r.kind != ReplRecord::kEpoch) out.push_back(r);
  return out;
}

bool is_prefix(const std::vector<ReplRecord>& small, const std::vector<ReplRecord>& big) {
  if (small.size() > big.size()) return false;
  for (std::size_t i = 0; i < small.size(); ++i)
    if (!(small[i] == big[i])) return false;
  return true;
}

TEST(ReplicaWal, EmptyBytesAreAFreshBoot) {
  const WalReplayResult r = wal_replay({});
  EXPECT_TRUE(r.fresh);
  EXPECT_FALSE(r.torn);
  EXPECT_TRUE(r.records.empty());
  EXPECT_EQ(r.epoch, 0u);
  EXPECT_FALSE(r.was_primary);
}

TEST(ReplicaWal, MagicOnlyIsAnEmptyLog) {
  const WalReplayResult r = wal_replay(wal_bytes({}));
  EXPECT_FALSE(r.fresh);
  EXPECT_FALSE(r.torn);
  EXPECT_TRUE(r.records.empty());
}

TEST(ReplicaWal, ReplaysRecordsAndRecoversEpochWithoutConsumingSequences) {
  const auto batches = sample_batches();
  const WalReplayResult r = wal_replay(wal_bytes(batches));
  EXPECT_FALSE(r.fresh);
  EXPECT_FALSE(r.torn);
  // The two kEpoch markers are applied (newest wins) but are NOT log entries.
  EXPECT_EQ(r.epoch, 1u);
  EXPECT_TRUE(r.was_primary);
  const auto want = flatten_non_epoch(batches);
  ASSERT_EQ(r.records.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) EXPECT_TRUE(r.records[i] == want[i]) << i;
}

TEST(ReplicaWal, NonMagicHeadThrows) {
  // A head that exists but is not the magic is corruption, not a torn tail:
  // silently treating it as fresh would erase an entire lineage.
  EXPECT_THROW(wal_replay({0xDE, 0xAD}), std::invalid_argument);
  auto bytes = wal_bytes(sample_batches());
  bytes[3] ^= 0x40;  // damage inside the magic itself
  EXPECT_THROW(wal_replay(bytes), std::invalid_argument);
  // Any truncation that cuts into the magic line is likewise a bad head.
  const std::vector<std::uint8_t> full = wal_bytes(sample_batches());
  for (std::size_t cut = 1; cut < kWalMagicLen; ++cut) {
    const std::vector<std::uint8_t> head(full.begin(), full.begin() + cut);
    EXPECT_THROW(wal_replay(head), std::invalid_argument) << "cut at " << cut;
  }
}

/// Replaying a log stamped with an older magic must throw, naming that
/// version and the one this build reads.
void expect_refused_by_name(const std::string& old_magic) {
  std::vector<std::uint8_t> bytes = wal_bytes(sample_batches());
  ASSERT_EQ(old_magic.size(), kWalMagicLen);
  std::copy(old_magic.begin(), old_magic.end(), bytes.begin());
  try {
    wal_replay(bytes);
    FAIL() << "a " << old_magic << " WAL replayed";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(old_magic.substr(0, kWalMagicLen - 1)), std::string::npos) << what;
    EXPECT_NE(what.find("snowkit-wal-v3"), std::string::npos) << what;
  }
}

TEST(ReplicaWal, V1HeadIsRefusedByName) {
  // A v1 log holds k-bit List masks where later logs hold write sets:
  // replaying it would misread every kListPush.
  expect_refused_by_name("snowkit-wal-v1\n");
}

TEST(ReplicaWal, V2HeadIsRefusedByName) {
  // A v2 log holds wire-v7 records: every field of every kind, under a
  // 10-byte kInvalidTxn envelope that v3 reads as a different txn.
  expect_refused_by_name("snowkit-wal-v2\n");
}

TEST(ReplicaWal, TruncationAtEveryOffsetRecoversAPrefix) {
  const auto batches = sample_batches();
  const std::vector<std::uint8_t> full = wal_bytes(batches);
  const auto all = flatten_non_epoch(batches);
  std::size_t frame_boundaries = 0;
  for (std::size_t cut = kWalMagicLen; cut < full.size(); ++cut) {
    const std::vector<std::uint8_t> head(full.begin(), full.begin() + cut);
    WalReplayResult r;
    ASSERT_NO_THROW(r = wal_replay(head)) << "cut at " << cut;
    EXPECT_FALSE(r.fresh);
    EXPECT_TRUE(is_prefix(r.records, all)) << "cut at " << cut << " invented records";
    if (r.torn) {
      EXPECT_LT(r.records.size(), all.size()) << "cut at " << cut;
    } else {
      ++frame_boundaries;  // clean cut: ends exactly on a frame boundary
    }
  }
  // Exactly one clean truncation point per frame: the boundary BEFORE it
  // (cut == kWalMagicLen is the boundary before the first frame; cutting at
  // full.size() never enters the loop).
  EXPECT_EQ(frame_boundaries, batches.size());
}

TEST(ReplicaWal, TornLogOfBatchedStepsStopsAtAStepBoundary) {
  // The WAL as a primary with a live backup writes it: one batch per handler
  // step someone waits on — a write-val's three inserts, the update-coor's
  // push — while the finalize's three object finalizes plus the
  // coordinator's wait for the next such step, the next write-val's two
  // inserts, and share its batch.  Tearing it at any byte recovers whole
  // steps only: never a write-val with some of its inserts, and never the
  // deferred finalize without the write-val it rode with.
  auto owned = std::make_unique<MemWal>();
  MemWal* disk = owned.get();
  std::map<ObjectId, VersionStore> stores;
  std::optional<CoorList> list(std::in_place, 4);
  Replicator::Config cfg;
  cfg.self = 0;
  cfg.peer = 1;
  cfg.has_list = true;
  cfg.num_objects = 4;
  std::size_t timers = 0;
  Replicator repl(
      cfg, std::move(owned), [](NodeId, Message) {},
      [&](TimeNs, std::function<void()>) { ++timers; }, &stores, &list);
  repl.boot();
  const auto waiter = [] {};
  repl.append({insert_rec(0, 1, 9, 10), insert_rec(1, 1, 9, 11), insert_rec(3, 1, 9, 13)},
              waiter);
  repl.append({push_rec(1, 9, 1, 50, {0, 1, 3})}, waiter);
  std::vector<ReplRecord> fin;
  for (const ObjectId obj : {0u, 1u, 3u}) {
    ReplRecord r;
    r.kind = ReplRecord::kFinalize;
    r.obj = obj;
    r.key = WriteKey{1, 9};
    r.position = 1;
    fin.push_back(r);
  }
  ReplRecord coor;
  coor.kind = ReplRecord::kCoorFinalize;
  coor.position = 1;
  fin.push_back(coor);
  repl.append(fin, nullptr);
  EXPECT_EQ(repl.log_size(), 4u) << "a finalize is logged with the next batch, not alone";
  EXPECT_EQ(timers, 1u) << "the deferred finalize arms one linger timer";
  repl.append({insert_rec(0, 2, 9, 20), insert_rec(1, 2, 9, 21)}, waiter);
  ASSERT_EQ(repl.log_size(), 10u);

  const std::vector<std::uint8_t> full = disk->bytes();
  const WalReplayResult whole = wal_replay(full);
  ASSERT_FALSE(whole.torn);
  ASSERT_EQ(whole.records.size(), 10u);
  std::vector<int> combined;
  for (std::size_t i = 4; i < whole.records.size(); ++i) combined.push_back(whole.records[i].kind);
  EXPECT_EQ(combined, (std::vector<int>{ReplRecord::kFinalize, ReplRecord::kFinalize,
                                        ReplRecord::kFinalize, ReplRecord::kCoorFinalize,
                                        ReplRecord::kInsert, ReplRecord::kInsert}));
  const std::vector<std::size_t> step_ends{0, 3, 4, 10};
  for (std::size_t cut = kWalMagicLen; cut < full.size(); ++cut) {
    const std::vector<std::uint8_t> head(full.begin(), full.begin() + cut);
    WalReplayResult r;
    ASSERT_NO_THROW(r = wal_replay(head)) << "cut at " << cut;
    EXPECT_TRUE(is_prefix(r.records, whole.records)) << "cut at " << cut;
    EXPECT_NE(std::find(step_ends.begin(), step_ends.end(), r.records.size()), step_ends.end())
        << "cut at " << cut << " recovered " << r.records.size() << " records, mid-step";
  }
}

TEST(ReplicaWal, SingleByteCorruptionAfterMagicNeverInventsRecords) {
  const auto batches = sample_batches();
  const std::vector<std::uint8_t> full = wal_bytes(batches);
  const auto all = flatten_non_epoch(batches);
  for (std::size_t off = kWalMagicLen; off < full.size(); ++off) {
    for (std::uint8_t bit : {std::uint8_t{0x01}, std::uint8_t{0x80}}) {
      std::vector<std::uint8_t> bytes = full;
      bytes[off] ^= bit;
      WalReplayResult r;
      // The FNV-1a checksum (or the length/seq-gap rules) must catch every
      // flip: replay stops at a valid prefix instead of applying garbage.
      ASSERT_NO_THROW(r = wal_replay(bytes)) << "flip at " << off;
      EXPECT_TRUE(r.torn) << "flip at " << off << " went unnoticed";
      EXPECT_TRUE(is_prefix(r.records, all)) << "flip at " << off << " invented records";
    }
  }
}

TEST(ReplicaWal, SequenceGapIsATornTail) {
  // A batch that does not extend the log contiguously ends replay even if its
  // frame is intact — a lost middle batch must not splice later records in.
  std::vector<ReplAppendReq> batches = sample_batches();
  batches[4].first_seq = 5;  // log only holds 3 records at this point
  const WalReplayResult r = wal_replay(wal_bytes(batches));
  EXPECT_TRUE(r.torn);
  EXPECT_EQ(r.records.size(), 3u);
  // The gap frame also hides the later epoch marker?  No: the kEpoch batch
  // precedes the gap, so the recovered role survives.
  EXPECT_EQ(r.epoch, 1u);
  EXPECT_TRUE(r.was_primary);
}

/// Appends `payload` to `bytes` as one well-formed WAL frame: u32le length,
/// the payload, and its FNV-1a checksum, exactly as wal_frame_batch does.
void append_frame(std::vector<std::uint8_t>& bytes, const std::vector<std::uint8_t>& payload) {
  for (int i = 0; i < 4; ++i) bytes.push_back(static_cast<std::uint8_t>(payload.size() >> (8 * i)));
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (std::uint8_t b : payload) h = (h ^ b) * 0x100000001B3ull;
  for (int i = 0; i < 8; ++i) bytes.push_back(static_cast<std::uint8_t>(h >> (8 * i)));
}

TEST(ReplicaWal, ForeignPayloadIsATornTail) {
  // A well-framed message of the wrong type (e.g. a stray ack) ends replay.
  std::vector<std::uint8_t> bytes = wal_bytes({sample_batches()[1]});
  append_frame(bytes, encode_message(Message{kInvalidTxn, ReplAppendAck{0, 0}}));
  const WalReplayResult r = wal_replay(bytes);
  EXPECT_TRUE(r.torn);
  EXPECT_EQ(r.records.size(), 2u);
}

TEST(ReplicaWal, UnknownRecordKindIsATornTail) {
  // A frame whose checksum holds but whose record kind is 9: the codec
  // refuses the kind, so replay keeps the two records before it and never
  // hands the record to a store (whose switch has no case for it).
  std::vector<std::uint8_t> bytes = wal_bytes({sample_batches()[1]});
  std::vector<std::uint8_t> payload =
      encode_message(Message{kInvalidTxn, ReplAppendReq{0, 2, {insert_rec(4, 2, 10, 5)}}});
  // envelope, tag, epoch, first_seq, count, then the record's kind byte.
  ASSERT_EQ(payload[5], ReplRecord::kInsert);
  payload[5] = 9;
  append_frame(bytes, payload);
  const WalReplayResult r = wal_replay(bytes);
  EXPECT_TRUE(r.torn);
  ASSERT_EQ(r.records.size(), 2u);
  EXPECT_EQ(r.records, sample_batches()[1].records);
}

TEST(ReplicaWal, ShippedEpochMarkerIsDroppedNotLogged) {
  // kEpoch records are local WAL markers; a peer that ships one anyway must
  // not get it logged as a sequenced record, where replay would read it as
  // this replica's own role change.
  auto owned = std::make_unique<MemWal>();
  MemWal* disk = owned.get();
  std::map<ObjectId, VersionStore> stores;
  std::optional<CoorList> list;
  Replicator::Config cfg;
  cfg.self = 1;
  cfg.peer = 0;
  cfg.start_primary = false;
  cfg.num_objects = 2;
  Replicator backup(cfg, std::move(owned), [](NodeId, Message) {},
                    [](TimeNs, std::function<void()>) {}, &stores, &list);
  backup.boot();  // its join is outstanding: the response below is applied
  backup.consume(0, Message{kInvalidTxn, ReplJoinResp{0, 0, 0, {epoch_rec(8, true),
                                                                insert_rec(0, 1, 10, 111)}}});
  backup.consume(0, Message{kInvalidTxn, ReplAppendReq{0, 1, {epoch_rec(7, true),
                                                              insert_rec(1, 1, 10, 222)}}});
  EXPECT_EQ(backup.log_size(), 2u);
  EXPECT_EQ(backup.epoch(), 0u);
  const WalReplayResult r = wal_replay(disk->bytes());
  EXPECT_FALSE(r.torn);
  EXPECT_EQ(r.records, (std::vector<ReplRecord>{insert_rec(0, 1, 10, 111),
                                                insert_rec(1, 1, 10, 222)}));
  EXPECT_EQ(r.epoch, 0u);
  EXPECT_FALSE(r.was_primary);
}

TEST(ReplicaWal, MemWalAppendIsByteExactAndResetClears) {
  MemWal wal;
  const auto frame = wal_frame_batch(sample_batches()[1]);
  std::vector<std::uint8_t> magic(kWalMagic, kWalMagic + kWalMagicLen);
  wal.append(magic);
  wal.append(frame);
  std::vector<std::uint8_t> want = magic;
  want.insert(want.end(), frame.begin(), frame.end());
  EXPECT_EQ(wal.read_all(), want);
  wal.reset();
  EXPECT_TRUE(wal.read_all().empty());
}

TEST(ReplicaWal, FileWalRoundTripsAcrossReopen) {
  const std::string path = testing::TempDir() + "/replica_wal_test.wal";
  const auto batches = sample_batches();
  {
    FileWal wal(path);
    wal.reset();  // independent of leftovers from a previous test run
    std::vector<std::uint8_t> magic(kWalMagic, kWalMagic + kWalMagicLen);
    wal.append(magic);
    for (const ReplAppendReq& b : batches) wal.append(wal_frame_batch(b));
  }  // destructor closes the fd: simulate a process death + restart
  FileWal wal(path);
  const WalReplayResult r = wal_replay(wal.read_all());
  EXPECT_FALSE(r.fresh);
  EXPECT_FALSE(r.torn);
  EXPECT_EQ(r.records.size(), flatten_non_epoch(batches).size());
  EXPECT_EQ(r.epoch, 1u);
  wal.reset();
  EXPECT_TRUE(wal.read_all().empty());
}

}  // namespace
}  // namespace snowkit

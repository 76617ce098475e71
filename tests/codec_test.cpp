// Round-trip tests for the wire codec: every live payload alternative must
// survive encode/decode bit-for-bit, and the reserved tags 8-11 must not.
#include <gtest/gtest.h>

#include <set>

#include "msg/codec.hpp"

namespace snowkit {
namespace {

template <typename T>
void roundtrip(T payload, TxnId txn = 7) {
  Message m{txn, Payload{std::move(payload)}};
  const auto bytes = encode_message(m);
  const Message back = decode_message(bytes);
  EXPECT_EQ(back.txn, m.txn);
  EXPECT_EQ(back.payload.index(), m.payload.index());
  EXPECT_EQ(std::string(payload_name(back.payload)), payload_name(m.payload));
}

TEST(Codec, WriteVal) {
  // One server's share of a WRITE: its objects gap-coded, each followed by
  // its zigzag value.
  roundtrip(WriteValReq{WriteKey{3, 9}, {{1, 42}}});
  const Message m{5, WriteValReq{WriteKey{3, 9}, {{1, 42}, {200, -3}}}};
  const auto bytes = encode_message(m);
  const Message back = decode_message(bytes);
  EXPECT_EQ(back, m);
  const auto& p = std::get<WriteValReq>(back.payload);
  EXPECT_EQ(p.key, (WriteKey{3, 9}));
  EXPECT_EQ(p.writes, (std::vector<std::pair<ObjectId, Value>>{{1, 42}, {200, -3}}));
  // txn, tag, head (no ack node, nothing folded), key (seq, writer), count,
  // gap 1 + zz(42), gap 199 (2 bytes) + zz(-3).
  EXPECT_EQ(bytes.size(), 1u + 1u + 1u + 2u + 1u + (1u + 1u) + (2u + 1u));
}

TEST(Codec, WriteValNamingItsAckNodeWithAFoldedUpdateCoor) {
  // Wire v10: s*'s share names s*'s node and carries the WRITE's update-coor,
  // whose key is the write-val's and whose W follows the writes.
  const WriteKey key{3, 9};
  const Message m{5, WriteValReq{key, {{1, 42}}, 4, UpdateCoorReq{key, {1, 300}}}};
  const auto bytes = encode_message(m);
  EXPECT_EQ(decode_message(bytes), m);
  // The head uv(2 * (4 + 1) + 1) costs the byte a write-val without either
  // costs too; W adds count, gap 1, gap 299 (2 bytes).
  const Message plain{5, WriteValReq{key, {{1, 42}}}};
  EXPECT_EQ(bytes.size(), encode_message(plain).size() + 1u + 1u + 2u);
  roundtrip(WriteValReq{key, {{1, 42}}, 7, std::nullopt});
  roundtrip(WriteValReq{key, {{1, 42}}, kInvalidNode, UpdateCoorReq{key, {1}}});
}

TEST(Codec, WriteValAck) {
  roundtrip(WriteValAck{WriteKey{1, 2}, {0}});
  const Message m{5, WriteValAck{WriteKey{1, 2}, {0, 7}}};
  EXPECT_EQ(decode_message(encode_message(m)), m);
}

TEST(Codec, InfoReader) {
  Message m{5, InfoReaderReq{WriteKey{8, 1}, {0, 2}}};
  const Message back = decode_message(encode_message(m));
  const auto& p = std::get<InfoReaderReq>(back.payload);
  EXPECT_EQ(p.key, (WriteKey{8, 1}));
  EXPECT_EQ(p.objs, (std::vector<ObjectId>{0, 2}));
}

TEST(Codec, InfoReaderAck) { roundtrip(InfoReaderAck{99}); }
TEST(Codec, UpdateCoor) {
  // The write set rides gap-coded like a read set.
  const Message m{7, UpdateCoorReq{WriteKey{2, 3}, {1, 200}}};
  const auto bytes = encode_message(m);
  EXPECT_EQ(decode_message(bytes), m);
  // txn, tag, key (seq, writer), count, then the gaps 1 and 199 (2 bytes).
  EXPECT_EQ(bytes.size(), 1u + 1u + 2u + 1u + (1u + 2u));
}
TEST(Codec, UpdateCoorAck) { roundtrip(UpdateCoorAck{12}); }
TEST(Codec, GetTagArr) {
  // The READ's object ids ride as gaps from the previous id.
  const Message m{7, GetTagArrReq{{3, 4, 200, 70000}, 5}};
  const auto bytes = encode_message(m);
  EXPECT_EQ(decode_message(bytes), m);
  // txn, tag, count, the gaps 3, 1, 196 (2 bytes) and 69800 (3 bytes), and
  // the reader's mode epoch.
  EXPECT_EQ(bytes.size(), 1u + 1u + 1u + (1u + 1u + 2u + 3u) + 1u);
}

TEST(Codec, GetTagArrRespWithHistory) {
  GetTagArrResp resp;
  resp.tag = 4;
  resp.entries = {
      TagArrEntry{2, WriteKey{1, 0}, {ListedKey{0, kInitialKey}, ListedKey{3, WriteKey{1, 0}}}},
      TagArrEntry{9, WriteKey{2, 1}, {}}};
  Message m{11, resp};
  const Message back = decode_message(encode_message(m));
  EXPECT_EQ(back, m);
  const auto& p = std::get<GetTagArrResp>(back.payload);
  EXPECT_EQ(p.tag, 4u);
  EXPECT_EQ(tag_entry(p.entries, 9).latest, (WriteKey{2, 1}));
  const auto& h = tag_entry(p.entries, 2).history;
  ASSERT_EQ(h.size(), 2u);
  EXPECT_EQ(h[1].position, 3u);
  EXPECT_EQ(h[1].key, (WriteKey{1, 0}));
  EXPECT_TRUE(tag_entry(p.entries, 9).history.empty());
}

TEST(Codec, AdaptTagArrRespCarriesAModeDeltaOrSnapshot) {
  const std::vector<TagArrEntry> entries{TagArrEntry{1, WriteKey{4, 2}, {}}};
  // A delta since epoch 4: object 9 flipped to C, objects 1 and 5 to B.
  const Message delta{12, AdaptTagArrResp{5, 3, entries, 6, 4, {9}, {1, 5}}};
  EXPECT_EQ(decode_message(encode_message(delta)), delta);
  // A snapshot (base 0) of the C-mode set.
  const Message snapshot{12, AdaptTagArrResp{5, 3, entries, 6, 0, {1, 4, 5, 9}, {}}};
  EXPECT_EQ(decode_message(encode_message(snapshot)), snapshot);
  // Mode bytes scale with the objects listed, not with k: the steady state,
  // an empty delta based at the epoch itself, costs the epoch and one 0
  // byte (wire v9; its base and two empty sets made it 4 bytes before).
  const Message none{12, AdaptTagArrResp{5, 3, entries, 6, 6, {}, {}}};
  EXPECT_EQ(decode_message(encode_message(none)), none);
  EXPECT_EQ(encoded_size(none), encoded_size(Message{12, GetTagArrResp{5, 3, entries}}) + 2u);
  // Any other base rides as base + 1 ahead of its sets: an empty delta from
  // an older epoch.
  const AdaptTagArrResp older{5, 3, entries, 6, 4, {}, {}};
  EXPECT_EQ(decode_message(encode_message(Message{12, older})), (Message{12, older}));
  EXPECT_EQ(encoded_size(Message{12, older}), encoded_size(none) + 2u);
  // The empty snapshot of epoch 0, what a reader already at the
  // coordinator's epoch gets, is the epoch byte alone (wire v10).
  const Message current{12, AdaptTagArrResp{5, 3, entries, 0, 0, {}, {}}};
  EXPECT_EQ(decode_message(encode_message(current)), current);
  EXPECT_EQ(encoded_size(current), encoded_size(Message{12, GetTagArrResp{5, 3, entries}}) + 1u);
}

TEST(Codec, TagEntryLookupAbortsOnAMissingObject) {
  const std::vector<TagArrEntry> entries{TagArrEntry{1, WriteKey{1, 0}, {}},
                                         TagArrEntry{5, WriteKey{2, 0}, {}}};
  EXPECT_EQ(tag_entry(entries, 5).latest, (WriteKey{2, 0}));
  EXPECT_DEATH(tag_entry(entries, 3), "no entry for object 3");
}

// Tags 8-11 are reserved (docs/WIRE.md): a frame carrying one is a decode
// error even with a body the wire-v4 codec accepted, no classifier counts
// it as READ traffic, and the encoder refuses to emit it.
TEST(Codec, ReservedTagsAreRejected) {
  const std::vector<std::vector<std::uint8_t>> old_bodies{
      {0x01, 0x05, 0x01, 0x00},        // read-val: obj 1, key (5, w0), watermark 0
      {0x01, 0x05, 0x01, 0x06, 0x01},  // read-val-resp: obj 1, key, value 3, found
      {0x02},                          // read-vals: obj 2
      {0x01, 0x00},                    // read-vals-resp: obj 1, no versions
  };
  for (std::uint8_t tag = 8; tag <= 11; ++tag) {
    std::vector<std::uint8_t> bytes{0x08, tag};
    bytes.insert(bytes.end(), old_bodies[tag - 8].begin(), old_bodies[tag - 8].end());
    Message out;
    std::string err;
    EXPECT_FALSE(try_decode_message(bytes, out, err)) << "tag " << int{tag};
    EXPECT_EQ(err, "payload tag " + std::to_string(tag) + " is reserved");
  }
  const Payload reserved{ReservedPayload<10>{}};
  EXPECT_STREQ(payload_name(reserved), "reserved");
  EXPECT_FALSE(is_read_request(reserved));
  EXPECT_FALSE(is_read_response(reserved));
  EXPECT_EQ(version_count(reserved), 0);
  EXPECT_DEATH(encode_message(Message{1, ReservedPayload<8>{}}), "reserved payload tag 8");
  EXPECT_DEATH(encoded_size(Message{1, ReservedPayload<11>{}}), "reserved payload tag 11");
}

TEST(Codec, Finalize) {
  roundtrip(FinalizeReq{WriteKey{9, 9}, 3, 17, {2}, false});
  for (const bool coor : {false, true}) {
    const Message m{5, FinalizeReq{WriteKey{9, 9}, 3, 17, {2, 5}, coor}};
    const auto bytes = encode_message(m);
    EXPECT_EQ(decode_message(bytes), m);
    // txn, tag, key, position, watermark, count + gaps 2 and 3, coor byte.
    EXPECT_EQ(bytes.size(), 1u + 1u + 2u + 1u + 1u + (1u + 2u) + 1u);
    EXPECT_EQ(bytes.back(), coor ? 1 : 0);
  }
}
TEST(Codec, EigerWrite) { roundtrip(EigerWriteReq{0, 5, 3}); }
TEST(Codec, EigerWriteAck) { roundtrip(EigerWriteAck{0, 7, 7}); }
TEST(Codec, EigerRead) { roundtrip(EigerReadReq{1, 2}); }
TEST(Codec, EigerReadResp) { roundtrip(EigerReadResp{1, 10, 2, 5, 5}); }
TEST(Codec, EigerReadAt) { roundtrip(EigerReadAtReq{1, 4, 6}); }
TEST(Codec, EigerReadAtResp) { roundtrip(EigerReadAtResp{1, 10, 8}); }
TEST(Codec, Lock) { roundtrip(LockReq{2, true}); }
TEST(Codec, LockGrant) { roundtrip(LockGrant{2, 123}); }
TEST(Codec, WriteUnlock) { roundtrip(WriteUnlockReq{2, 9}); }
TEST(Codec, Unlock) { roundtrip(UnlockReq{2}); }
TEST(Codec, UnlockAck) { roundtrip(UnlockAck{2}); }
TEST(Codec, SimpleRead) { roundtrip(SimpleReadReq{0}); }
TEST(Codec, SimpleReadResp) { roundtrip(SimpleReadResp{0, 1}); }
TEST(Codec, SimpleWrite) { roundtrip(SimpleWriteReq{0, 1}); }
TEST(Codec, SimpleWriteAck) { roundtrip(SimpleWriteAck{0}); }

ReplRecord insert_record() {
  ReplRecord r;
  r.kind = ReplRecord::kInsert;
  r.obj = 70000;
  r.key = WriteKey{3, 1};
  r.value = -5;
  return r;
}

ReplRecord finalize_record() {
  ReplRecord r;
  r.kind = ReplRecord::kFinalize;
  r.obj = 2;
  r.key = WriteKey{3, 1};
  r.position = 9;
  r.watermark = 4;
  return r;
}

ReplRecord push_record() {
  ReplRecord r;
  r.kind = ReplRecord::kListPush;
  r.key = WriteKey{3, 1};
  r.objs = {2, 300};
  r.txn = 40;
  r.writer = 1;
  r.position = 9;
  return r;
}

ReplRecord coor_finalize_record(Tag position) {
  ReplRecord r;
  r.kind = ReplRecord::kCoorFinalize;
  r.position = position;
  return r;
}

ReplRecord epoch_record() {
  ReplRecord r;
  r.kind = ReplRecord::kEpoch;
  r.epoch = 3;
  r.primary = 1;
  return r;
}

/// One message of every live payload, under small, large and invalid txns.
std::vector<Message> every_payload() {
  const std::vector<TagArrEntry> entries{
      TagArrEntry{3, WriteKey{1, 0}, {ListedKey{1, WriteKey{1, 0}}}}};
  const std::vector<Payload> payloads{
      WriteValReq{WriteKey{3, 9}, {{1, 42}, {200, -3}}}, WriteValAck{WriteKey{1, 2}, {0, 7}},
      InfoReaderReq{WriteKey{8, 1}, {0, 2}}, InfoReaderAck{99}, UpdateCoorReq{WriteKey{2, 3}, {1}},
      UpdateCoorAck{12, 3}, GetTagArrReq{{3, 4}, 5}, GetTagArrResp{4, 2, entries},
      FinalizeReq{WriteKey{9, 9}, 3, 17, {2}, true}, EigerWriteReq{0, 5, 3},
      EigerWriteAck{0, 7, 7}, EigerReadReq{1, 2}, EigerReadResp{1, 10, 2, 5, 5},
      EigerReadAtReq{1, 4, 6}, EigerReadAtResp{1, 10, 8}, LockReq{2, true}, LockGrant{2, 123},
      WriteUnlockReq{2, 9}, UnlockReq{2}, UnlockAck{2}, SimpleReadReq{0}, SimpleReadResp{0, 1},
      SimpleWriteReq{0, 1}, SimpleWriteAck{0}, FinalizeCoorReq{300}, ReadDoneReq{20000},
      ReplAppendReq{1, 5000,
                    {insert_record(), finalize_record(), push_record(), coor_finalize_record(9),
                     epoch_record()}},
      ReplAppendAck{1, 5000}, ReplJoinReq{2, 40, 1},
      ReplJoinResp{2, 1, 0, {insert_record(), coor_finalize_record(1)}},
      TakeoverNotice{1, 2, 3}, NodeDownNotice{2},
      AdaptTagArrResp{4, 2, entries, 9, 7, {5}, {2, 300}},
      ReadValBatchReq{9, {{5, WriteKey{3, 1}}}},
      ReadValBatchResp{{{5, WriteKey{3, 1}, -4, true}}},
      ReadValsBatchReq{0, {5}, GetTagArrReq{{5}, 2}},
      ReadValsBatchResp{{{0, {Version{kInitialKey, 0}}}}, GetTagArrResp{4, 2, entries}}};
  std::vector<Message> out;
  for (const Payload& p : payloads) {
    for (const TxnId txn : {TxnId{0}, TxnId{20000}, kInvalidTxn - 1, kInvalidTxn}) {
      out.push_back(Message{txn, p});
    }
  }
  return out;
}

TEST(Codec, EncodedSizeMatches) {
  const std::vector<Message> msgs = every_payload();
  std::set<std::size_t> tags;
  for (const Message& m : msgs) tags.insert(m.payload.index());
  EXPECT_EQ(tags.size(), std::variant_size_v<Payload> - 4) << "a live payload is missing";
  for (const Message& m : msgs) {
    const auto bytes = encode_message(m);
    EXPECT_EQ(encoded_size(m), bytes.size()) << payload_name(m.payload);
    EXPECT_EQ(decode_message(bytes), m) << payload_name(m.payload);
  }
}

// Golden bytes: one fixed message of every live payload tag and one
// repl-append of every replication record kind, each pinned to the exact
// bytes wire v10 puts on the wire.  The roundtrip tests cannot see an encoder
// and a decoder that change together; this one can.
TEST(Codec, GoldenBytesOfEveryLiveTagAndRecordKind) {
  const std::vector<TagArrEntry> entries{
      TagArrEntry{3, WriteKey{1, 0},
                  {ListedKey{1, WriteKey{1, 0}}, ListedKey{4, WriteKey{2, kInvalidNode}}}},
      TagArrEntry{300, WriteKey{2, 1}, {}}};
  const std::vector<std::pair<Message, std::vector<std::uint8_t>>> golden{
      {Message{5, WriteValReq{WriteKey{3, 9}, {{1, 42}, {200, -3}}}},
       {0x06, 0x00, 0x00, 0x03, 0x0A, 0x02, 0x01, 0x54, 0xC7, 0x01, 0x05}},
      {Message{5, WriteValReq{WriteKey{3, 9}, {{1, 42}}, 4, UpdateCoorReq{WriteKey{3, 9}, {1, 300}}}},
       {0x06, 0x00, 0x0B, 0x03, 0x0A, 0x01, 0x01, 0x54, 0x02, 0x01, 0xAB, 0x02}},
      {Message{6, WriteValAck{WriteKey{1, 2}, {0, 7}}},
       {0x07, 0x01, 0x01, 0x03, 0x02, 0x00, 0x07}},
      {Message{7, InfoReaderReq{WriteKey{8, 1}, {0, 2}}},
       {0x08, 0x02, 0x08, 0x02, 0x02, 0x00, 0x02}},
      {Message{8, InfoReaderAck{99}},
       {0x09, 0x03, 0x63}},
      {Message{9, UpdateCoorReq{WriteKey{2, 3}, {1, 300}}},
       {0x0A, 0x04, 0x02, 0x04, 0x02, 0x01, 0xAB, 0x02}},
      {Message{10, UpdateCoorAck{12, 3}},
       {0x0B, 0x05, 0x0C, 0x03}},
      {Message{11, GetTagArrReq{{3, 4}, 5}},
       {0x0C, 0x06, 0x02, 0x03, 0x01, 0x05}},
      {Message{12, GetTagArrResp{4, 2, entries}},
       {0x0D, 0x07, 0x04, 0x02, 0x02, 0x03, 0x01, 0x01, 0x02, 0x02, 0x01, 0x01, 0x06, 0x02, 0x00,
        0xAC, 0x02, 0x02, 0x02, 0x00}},
      {Message{13, FinalizeReq{WriteKey{9, 9}, 3, 17, {2, 5}, true}},
       {0x0E, 0x0C, 0x09, 0x0A, 0x03, 0x11, 0x02, 0x02, 0x03, 0x01}},
      {Message{14, EigerWriteReq{0, 5, 3}},
       {0x0F, 0x0D, 0x00, 0x0A, 0x03}},
      {Message{15, EigerWriteAck{0, 7, 7}},
       {0x10, 0x0E, 0x00, 0x07, 0x07}},
      {Message{16, EigerReadReq{1, 2}},
       {0x11, 0x0F, 0x01, 0x02}},
      {Message{17, EigerReadResp{1, -10, 2, 5, 5}},
       {0x12, 0x10, 0x01, 0x13, 0x02, 0x05, 0x05}},
      {Message{18, EigerReadAtReq{1, 4, 6}},
       {0x13, 0x11, 0x01, 0x04, 0x06}},
      {Message{19, EigerReadAtResp{1, 10, 8}},
       {0x14, 0x12, 0x01, 0x14, 0x08}},
      {Message{20, LockReq{2, true}},
       {0x15, 0x13, 0x02, 0x01}},
      {Message{21, LockGrant{2, 123}},
       {0x16, 0x14, 0x02, 0xF6, 0x01}},
      {Message{22, WriteUnlockReq{2, -9}},
       {0x17, 0x15, 0x02, 0x11}},
      {Message{23, UnlockReq{2}},
       {0x18, 0x16, 0x02}},
      {Message{24, UnlockAck{2}},
       {0x19, 0x17, 0x02}},
      {Message{25, SimpleReadReq{0}},
       {0x1A, 0x18, 0x00}},
      {Message{26, SimpleReadResp{0, 1}},
       {0x1B, 0x19, 0x00, 0x02}},
      {Message{27, SimpleWriteReq{0, -1}},
       {0x1C, 0x1A, 0x00, 0x01}},
      {Message{28, SimpleWriteAck{0}},
       {0x1D, 0x1B, 0x00}},
      {Message{29, FinalizeCoorReq{300}},
       {0x1E, 0x1C, 0xAC, 0x02}},
      {Message{kInvalidTxn, ReadDoneReq{20000}},
       {0x00, 0x1D, 0xA0, 0x9C, 0x01}},
      {Message{kInvalidTxn, ReplAppendReq{1, 5000, {insert_record(), coor_finalize_record(300)}}},
       {0x00, 0x1E, 0x01, 0x88, 0x27, 0x02, 0x00, 0xF0, 0xA2, 0x04, 0x03, 0x02, 0x09, 0x03, 0xAC,
        0x02}},
      {Message{kInvalidTxn, ReplAppendAck{1, 5000}},
       {0x00, 0x1F, 0x01, 0x88, 0x27}},
      {Message{kInvalidTxn, ReplJoinReq{2, 40, 1}},
       {0x00, 0x20, 0x02, 0x28, 0x01}},
      {Message{kInvalidTxn, ReplJoinResp{2, 1, 0, {push_record()}}},
       {0x00, 0x21, 0x02, 0x01, 0x00, 0x01, 0x02, 0x03, 0x02, 0x02, 0x02, 0xAA, 0x02, 0x28, 0x02,
        0x09}},
      {Message{30, TakeoverNotice{1, 2, 3}},
       {0x1F, 0x22, 0x01, 0x03, 0x03}},
      {Message{kInvalidTxn, NodeDownNotice{2}},
       {0x00, 0x23, 0x03}},
      {Message{200, AdaptTagArrResp{4, 2, entries, 9, 7, {5}, {2, 300}}},
       {0xC9, 0x01, 0x24, 0x04, 0x02, 0x02, 0x03, 0x01, 0x01, 0x02, 0x02, 0x01, 0x01, 0x06, 0x02,
        0x00, 0xAC, 0x02, 0x02, 0x02, 0x00, 0x09, 0x08, 0x01, 0x05, 0x02, 0x02, 0xAA, 0x02}},
      {Message{205, AdaptTagArrResp{4, 2, {}, 9, 9, {}, {}}},
       {0xCE, 0x01, 0x24, 0x04, 0x02, 0x00, 0x09, 0x00}},
      {Message{207, AdaptTagArrResp{4, 2, {}, 0, 0, {}, {}}},
       {0xD0, 0x01, 0x24, 0x04, 0x02, 0x00, 0x00}},
      {Message{201, ReadValBatchReq{9, {{5, WriteKey{3, 1}}, {300, kInitialKey}}}},
       {0xCA, 0x01, 0x25, 0x09, 0x02, 0x05, 0x03, 0x02, 0xA7, 0x02, 0x00, 0x00}},
      {Message{202, ReadValBatchResp{{{5, WriteKey{3, 1}, -4, true}, {6, kInitialKey, 0, false}}}},
       {0xCB, 0x01, 0x26, 0x02, 0x05, 0x03, 0x02, 0x07, 0x01, 0x06, 0x00, 0x00, 0x00, 0x00}},
      {Message{203, ReadValsBatchReq{3, {5}, GetTagArrReq{{5, 9}, 2}}},
       {0xCC, 0x01, 0x27, 0x07, 0x02, 0x05, 0x02, 0x05, 0x04, 0x02}},
      {Message{206, ReadValsBatchReq{3, {5}, std::nullopt,
                                     {{9, WriteKey{3, 1}, true}, {300, kInitialKey, false}}}},
       {0xCF, 0x01, 0x27, 0x06, 0x03, 0x05, 0x02, 0x13, 0x03, 0x02, 0xC6, 0x04, 0x00, 0x00}},
      {Message{204, ReadValsBatchResp{{{0, {Version{kInitialKey, 0}, Version{WriteKey{3, 1}, -8}}},
                                       {7, {}}},
                                      AdaptTagArrResp{4, 2, {}, 9, 0, {5}, {}}}},
       {0xCD, 0x01, 0x28, 0x0A, 0x00, 0x02, 0x00, 0x00, 0x00, 0x06, 0x02, 0x0F, 0x07, 0x00, 0x04,
        0x02, 0x00, 0x09, 0x01, 0x01, 0x05, 0x00}},
      {Message{kInvalidTxn, ReplAppendReq{1, 0, {insert_record()}}},
       {0x00, 0x1E, 0x01, 0x00, 0x01, 0x00, 0xF0, 0xA2, 0x04, 0x03, 0x02, 0x09}},
      {Message{kInvalidTxn, ReplAppendReq{1, 0, {finalize_record()}}},
       {0x00, 0x1E, 0x01, 0x00, 0x01, 0x01, 0x02, 0x03, 0x02, 0x09, 0x04}},
      {Message{kInvalidTxn, ReplAppendReq{1, 0, {push_record()}}},
       {0x00, 0x1E, 0x01, 0x00, 0x01, 0x02, 0x03, 0x02, 0x02, 0x02, 0xAA, 0x02, 0x28, 0x02, 0x09}},
      {Message{kInvalidTxn, ReplAppendReq{1, 0, {coor_finalize_record(300)}}},
       {0x00, 0x1E, 0x01, 0x00, 0x01, 0x03, 0xAC, 0x02}},
      {Message{kInvalidTxn, ReplAppendReq{1, 0, {epoch_record()}}},
       {0x00, 0x1E, 0x01, 0x00, 0x01, 0x04, 0x03, 0x01}}
  };
  std::set<std::size_t> tags;
  std::set<int> kinds;
  for (const auto& [m, bytes] : golden) {
    tags.insert(m.payload.index());
    if (const auto* append = std::get_if<ReplAppendReq>(&m.payload)) {
      for (const ReplRecord& rec : append->records) kinds.insert(rec.kind);
    }
    EXPECT_EQ(encode_message(m), bytes) << payload_name(m.payload);
    EXPECT_EQ(encoded_size(m), bytes.size()) << payload_name(m.payload);
    EXPECT_EQ(decode_message(bytes), m) << payload_name(m.payload);
  }
  EXPECT_EQ(tags.size(), std::variant_size_v<Payload> - 4) << "a live payload is missing";
  EXPECT_EQ(kinds.size(), ReplRecord::kEpoch + 1u) << "a record kind is missing";
}

// Wire v8's envelope is uv(txn + 1): kInvalidTxn, which every read-done and
// replication message carries, wraps to a 1-byte 0.
TEST(Codec, EnvelopeTxnIsShiftedByOne) {
  const auto unlock_ack = [](std::vector<std::uint8_t> envelope) {
    envelope.insert(envelope.end(), {0x17, 0x02});  // tag 23 (unlock-ack), obj 2
    return envelope;
  };
  std::vector<std::uint8_t> max_varint(9, 0xFF);
  max_varint.push_back(0x01);  // u64 max: 63 low bits, then bit 63
  const std::vector<std::pair<TxnId, std::vector<std::uint8_t>>> cases{
      {kInvalidTxn, unlock_ack({0x00})},
      {0, unlock_ack({0x01})},
      {126, unlock_ack({0x7F})},
      {127, unlock_ack({0x80, 0x01})},
      {kInvalidTxn - 1, unlock_ack(max_varint)}};
  for (const auto& [txn, bytes] : cases) {
    const Message m{txn, UnlockAck{2}};
    EXPECT_EQ(encode_message(m), bytes) << txn;
    EXPECT_EQ(encoded_size(m), bytes.size()) << txn;
    EXPECT_EQ(decode_message(bytes), m) << txn;
  }
  // An envelope varint past 64 bits is malformed, not wrapped.
  Message out;
  std::string err;
  std::vector<std::uint8_t> overflow(9, 0xFF);
  overflow.push_back(0x02);
  EXPECT_FALSE(try_decode_message(unlock_ack(overflow), out, err));
  EXPECT_EQ(err, "varint overflows 64 bits");
  EXPECT_FALSE(try_decode_message(unlock_ack(std::vector<std::uint8_t>(11, 0x80)), out, err));
  EXPECT_EQ(err, "varint overflows 64 bits");
}

// The byte budget of the messages that carry kInvalidTxn.
TEST(Codec, InvalidTxnMessagesCostOneEnvelopeByte) {
  // read-done: envelope, tag, and the READ's txn (2 bytes below 2^14).
  EXPECT_EQ(encoded_size(Message{kInvalidTxn, ReadDoneReq{(1u << 14) - 1}}), 4u);
  EXPECT_EQ(encode_message(Message{kInvalidTxn, ReadDoneReq{20000}}).size(), 5u);
  // repl-append-ack: envelope, tag, epoch, acked_seq (2 bytes).
  EXPECT_EQ(encode_message(Message{kInvalidTxn, ReplAppendAck{1, 5000}}),
            (std::vector<std::uint8_t>{0x00, 0x1F, 0x01, 0x88, 0x27}));
}

/// A record's bytes inside a repl-append: the batch's size less the empty
/// batch's (both counts are one byte).
std::size_t record_bytes(const ReplRecord& rec) {
  return encoded_size(Message{kInvalidTxn, ReplAppendReq{1, 0, {rec}}}) -
         encoded_size(Message{kInvalidTxn, ReplAppendReq{1, 0, {}}});
}

// Each record kind writes its kind byte and its own fields, nothing else.
TEST(Codec, ReplRecordsCarryOnlyTheirKindsFields) {
  const std::vector<ReplRecord> recs{insert_record(), finalize_record(), push_record(),
                                     coor_finalize_record(300), epoch_record()};
  for (const ReplRecord& rec : recs) {
    for (const Message& m : {Message{kInvalidTxn, ReplAppendReq{1, 7, {rec}}},
                             Message{kInvalidTxn, ReplJoinResp{1, 1, 7, {rec}}}}) {
      EXPECT_EQ(decode_message(encode_message(m)), m) << int{rec.kind};
    }
  }
  // kind, obj 70000 (3 bytes), key (seq, writer), zz(-5).
  EXPECT_EQ(record_bytes(insert_record()), 1u + 3u + 2u + 1u);
  // kind, obj, key, position, watermark.
  EXPECT_EQ(record_bytes(finalize_record()), 1u + 1u + 2u + 1u + 1u);
  // kind, key, count + gaps 2 and 298 (2 bytes), txn, writer, position.
  EXPECT_EQ(record_bytes(push_record()), 1u + 2u + (1u + 1u + 2u) + 1u + 1u + 1u);
  // kind and the position varint.
  EXPECT_EQ(record_bytes(coor_finalize_record(5)), 1u + 1u);
  EXPECT_EQ(record_bytes(coor_finalize_record(300)), 1u + 2u);
  // kind, epoch, primary byte.
  EXPECT_EQ(record_bytes(epoch_record()), 1u + 1u + 1u);
  // A list push may leave its object set empty on encode (the decoder
  // refuses one that names no object).
  ReplRecord bare = push_record();
  bare.objs.clear();
  EXPECT_EQ(record_bytes(bare), record_bytes(push_record()) - 3u);
}

TEST(Codec, ReplRecordEncoderRefusesFieldsOutsideItsKind) {
  // The decoder would leave such a field at its default, so the encoder
  // aborts instead of dropping it.
  ReplRecord coor = coor_finalize_record(3);
  coor.obj = 1;
  EXPECT_DEATH(encode_message(Message{kInvalidTxn, ReplAppendReq{1, 0, {coor}}}),
               "kind 3 sets a field it does not carry");
  ReplRecord insert = insert_record();
  insert.txn = 12;
  EXPECT_DEATH(encoded_size(Message{kInvalidTxn, ReplAppendReq{1, 0, {insert}}}),
               "kind 0 sets a field it does not carry");
  ReplRecord unknown;
  unknown.kind = 9;
  EXPECT_DEATH(encode_message(Message{kInvalidTxn, ReplAppendReq{1, 0, {unknown}}}),
               "encoding replication record kind 9");
}

TEST(Codec, ReplRecordKindsAbove4AreRefused) {
  // envelope, tag 30 (repl-append), epoch 1, first_seq 0, one record: kind
  // 3 (kCoorFinalize), position 3.  The same for tag 33 (repl-join-resp),
  // whose reset byte follows the epoch.
  const std::vector<std::uint8_t> append{0x00, 0x1E, 0x01, 0x00, 0x01, 0x03, 0x03};
  const std::vector<std::uint8_t> join{0x00, 0x21, 0x01, 0x00, 0x00, 0x01, 0x03, 0x03};
  ASSERT_EQ(encode_message(Message{kInvalidTxn, ReplAppendReq{1, 0, {coor_finalize_record(3)}}}),
            append);
  ASSERT_EQ(
      encode_message(Message{kInvalidTxn, ReplJoinResp{1, 0, 0, {coor_finalize_record(3)}}}),
      join);
  Message out;
  std::string err;
  for (const std::uint8_t kind : {5, 9, 255}) {
    for (std::vector<std::uint8_t> bytes : {append, join}) {
      bytes[bytes.size() - 2] = kind;
      EXPECT_FALSE(try_decode_message(bytes, out, err)) << int{kind};
      EXPECT_EQ(err, "replication record kind " + std::to_string(kind) + " is not 0-4");
    }
  }
}

TEST(Codec, ReadBatches) {
  // A server's share of one READ round: the objects ride as an ascending
  // set, each gap followed by the key (read-val-batch) or nothing
  // (read-vals-batch).  txn 7 (0x08: the envelope is uv(txn + 1)), tag,
  // watermark 9, count 2, then the entries.
  const ReadValBatchReq batch{9, {{5, WriteKey{3, 1}}, {300, kInitialKey}}};
  EXPECT_EQ(encode_message(Message{7, batch}),
            (std::vector<std::uint8_t>{0x08, 0x25, 0x09, 0x02, 0x05, 0x03, 0x02, 0xA7, 0x02,
                                       0x00, 0x00}));
  // read-vals-batch's first varint is 2 * floor + coor (0: no folded
  // get-tag-arr), and its count 2 * count + held (0: no held list).
  const ReadValsBatchReq lists{0, {5, 300}};
  EXPECT_EQ(encode_message(Message{7, lists}),
            (std::vector<std::uint8_t>{0x08, 0x27, 0x00, 0x04, 0x05, 0xA7, 0x02}));
  for (const Payload& p :
       {Payload{batch}, Payload{lists},
        Payload{ReadValBatchResp{{{5, WriteKey{3, 1}, -4, true}, {300, kInitialKey, 0, false}}}},
        Payload{ReadValsBatchResp{{{5, {Version{kInitialKey, 0}, Version{WriteKey{3, 1}, 8}}},
                                   {300, {Version{kInitialKey, 0}}}}}}}) {
    EXPECT_EQ(decode_message(encode_message(Message{7, p})), (Message{7, p}));
  }
}

TEST(Codec, ReadValsBatchFoldsTheCoordinatorsTagArray) {
  // The coordinator shard's batch: coor bit set (2 * watermark 0 + 1), the
  // batch, then get-tag-arr's body — the whole READ's I {0, 5, 300} as
  // gaps, and mode epoch 2.
  const GetTagArrReq gt{{0, 5, 300}, 2};
  const ReadValsBatchReq folded{0, {5, 300}, gt};
  EXPECT_EQ(encode_message(Message{7, folded}),
            (std::vector<std::uint8_t>{0x08, 0x27, 0x01, 0x04, 0x05, 0xA7, 0x02, 0x03, 0x00, 0x05,
                                       0xA7, 0x02, 0x02}));
  // Its response: 4 * entry count + the tag-array kind (0 none, 1 tag-arr,
  // 2 adapt-tag-arr), the entries, then that reply's body: tag 4,
  // watermark 2, no entries.
  const std::vector<ObjectVersions> lists{{5, {Version{kInitialKey, 0}}}};
  const ReadValsBatchResp plain{lists, std::nullopt};
  const ReadValsBatchResp with_tag_arr{lists, GetTagArrResp{4, 2, {}}};
  EXPECT_EQ(encode_message(Message{7, plain}),
            (std::vector<std::uint8_t>{0x08, 0x28, 0x04, 0x05, 0x01, 0x00, 0x00, 0x00}));
  EXPECT_EQ(encode_message(Message{7, with_tag_arr}),
            (std::vector<std::uint8_t>{0x08, 0x28, 0x05, 0x05, 0x01, 0x00, 0x00, 0x00, 0x04, 0x02,
                                       0x00}));
  // A batch that does not fold pays nothing for the fold, and a fold costs
  // the standalone body alone: the get-tag-arr's or reply's txn and tag
  // bytes (and its frame) are what it saves.
  EXPECT_EQ(encoded_size(Message{7, folded}),
            encoded_size(Message{7, ReadValsBatchReq{0, {5, 300}}}) +
                encoded_size(Message{7, gt}) - 2);
  const std::vector<TagArrEntry> entries{TagArrEntry{5, WriteKey{1, 0}, {}}};
  const AdaptTagArrResp adapt{4, 2, entries, 9, 7, {5}, {300}};
  const ReadValsBatchResp with_adapt{lists, adapt};
  EXPECT_EQ(encoded_size(Message{7, with_adapt}),
            encoded_size(Message{7, plain}) + encoded_size(Message{7, adapt}) - 2);
  for (const Payload& p : {Payload{folded}, Payload{plain}, Payload{with_tag_arr},
                           Payload{with_adapt}}) {
    EXPECT_EQ(decode_message(encode_message(Message{7, p})), (Message{7, p}));
  }
}

TEST(Codec, VersionCountClassifier) {
  EXPECT_EQ(version_count(Payload{GetTagArrResp{}}), 1);
  EXPECT_EQ(version_count(Payload{WriteValReq{}}), 0);
  // A batched response counts versions per object, not per frame: one for
  // every read-val-batch-resp entry, the longest list of a
  // read-vals-batch-resp.
  EXPECT_EQ(version_count(Payload{ReadValBatchResp{{{0, kInitialKey, 0, true},
                                                    {1, kInitialKey, 0, true},
                                                    {2, kInitialKey, 0, false}}}}),
            1);
  const std::vector<Version> two{Version{kInitialKey, 0}, Version{WriteKey{1, 0}, 1}};
  const std::vector<Version> three{Version{kInitialKey, 0}, Version{WriteKey{1, 0}, 1},
                                   Version{WriteKey{2, 0}, 2}};
  EXPECT_EQ(version_count(Payload{ReadValsBatchResp{{{0, two}, {1, three}, {2, two}}}}), 3);
  EXPECT_EQ(version_count(Payload{ReadValsBatchResp{{{4, two}}}}), 2);
  EXPECT_EQ(version_count(Payload{ReadValBatchReq{0, {{0, kInitialKey}}}}), 0);
}

// try_decode_message is the UNTRUSTED entry point (network frames): every
// malformation must error-return, never abort.
TEST(Codec, TryDecodeAcceptsValidBytes) {
  const Message m{5, Payload{WriteValReq{WriteKey{3, 9}, {{1, 42}}}}};
  Message out;
  std::string err;
  ASSERT_TRUE(try_decode_message(encode_message(m), out, err)) << err;
  EXPECT_EQ(out, m);
}

TEST(Codec, TryDecodeRejectsMalformedBytes) {
  Message out;
  std::string err;
  // Out-of-range payload index.
  EXPECT_FALSE(try_decode_message({0x01, 0xFF}, out, err));
  // Empty buffer.
  EXPECT_FALSE(try_decode_message({}, out, err));
  // Truncated: valid prefix of each tag-array body, cut at every byte offset.
  const std::vector<TagArrEntry> entries{
      TagArrEntry{3, WriteKey{1, 0}, {ListedKey{1, WriteKey{1, 0}}, ListedKey{4, WriteKey{2, 1}}}},
      TagArrEntry{300, WriteKey{2, 1}, {}}};
  ReplRecord push;
  push.kind = ReplRecord::kListPush;
  push.key = WriteKey{3, 1};
  push.position = 9;
  push.objs = {2, 300, 70000};
  push.txn = 40;
  push.writer = 1;
  for (const Payload& p : {Payload{WriteValReq{WriteKey{3, 1}, {{2, -1}, {300, 70000}}}},
                           Payload{WriteValAck{WriteKey{3, 1}, {2, 300}}},
                           Payload{FinalizeReq{WriteKey{3, 1}, 9, 4, {2, 300}, true}},
                           Payload{InfoReaderReq{WriteKey{3, 1}, {2, 300}}},
                           Payload{UpdateCoorReq{WriteKey{3, 1}, {2, 300, 70000}}},
                           Payload{GetTagArrReq{{3, 300, 70000}, 200}},
                           Payload{ReadValBatchReq{4, {{2, WriteKey{3, 1}}, {300, kInitialKey}}}},
                           Payload{ReadValsBatchReq{4, {2, 300, 70000}}},
                           Payload{ReadValsBatchReq{4, {2, 300}, GetTagArrReq{{2, 300, 70000}, 9}}},
                           Payload{ReadValsBatchResp{{{2, {Version{WriteKey{3, 1}, -1}}}},
                                                     GetTagArrResp{4, 2, entries}}},
                           Payload{ReadValsBatchResp{
                               {{2, {}}}, AdaptTagArrResp{4, 2, entries, 9, 7, {5}, {2, 300}}}},
                           Payload{GetTagArrResp{4, 2, entries}},
                           Payload{AdaptTagArrResp{4, 2, entries, 9, 7, {5}, {2, 300}}},
                           Payload{AdaptTagArrResp{4, 2, entries, 9, 0, {5, 300}, {}}},
                           Payload{ReplAppendReq{1, 0, {push}}}}) {
    const auto full = encode_message(Message{7, p});
    for (std::size_t cut = 0; cut < full.size(); ++cut) {
      std::vector<std::uint8_t> prefix(full.begin(),
                                       full.begin() + static_cast<std::ptrdiff_t>(cut));
      EXPECT_FALSE(try_decode_message(prefix, out, err))
          << payload_name(p) << " cut at " << cut;
    }
    // Trailing garbage after a complete payload.
    auto padded = full;
    padded.push_back(0x00);
    EXPECT_FALSE(try_decode_message(padded, out, err)) << payload_name(p);
    // And the full buffer still decodes.
    EXPECT_TRUE(try_decode_message(full, out, err)) << err;
    EXPECT_EQ(out, (Message{7, p}));
  }
}

TEST(Codec, TryDecodeRejectsMalformedReadSets) {
  Message out;
  std::string err;
  // txn 0, tag 6 (get-tag-arr), then the read set.
  // A repeated id (zero gap after the first) is not strictly ascending.
  EXPECT_FALSE(try_decode_message({0x01, 0x06, 0x02, 0x05, 0x00}, out, err));
  EXPECT_NE(err.find("strictly ascending"), std::string::npos) << err;
  // Gaps summing past the ObjectId range.
  EXPECT_FALSE(try_decode_message(
      {0x01, 0x06, 0x02, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 0x01}, out, err));
  EXPECT_NE(err.find("out of range"), std::string::npos) << err;
  // A count larger than the buffer.
  EXPECT_FALSE(try_decode_message({0x01, 0x06, 0x7F, 0x01}, out, err));
  // A leading zero id is fine (the last byte is the mode epoch).
  ASSERT_TRUE(try_decode_message({0x01, 0x06, 0x02, 0x00, 0x01, 0x00}, out, err)) << err;
  EXPECT_EQ(std::get<GetTagArrReq>(out.payload).objs, (std::vector<ObjectId>{0, 1}));
}

TEST(Codec, TryDecodeRejectsMalformedWriteSets) {
  Message out;
  std::string err;
  // txn 0, then tag 2 (info-reader) or 4 (update-coor), key (1, w0), and
  // the write set.
  for (const std::uint8_t tag : {0x02, 0x04}) {
    // Unsorted: a wrapped gap would be huge, so "descending" shows up as a
    // repeated id (zero gap) or an id past the ObjectId range.
    EXPECT_FALSE(try_decode_message({0x01, tag, 0x01, 0x01, 0x02, 0x05, 0x00}, out, err));
    EXPECT_NE(err.find("strictly ascending"), std::string::npos) << err;
    EXPECT_FALSE(try_decode_message(
        {0x01, tag, 0x01, 0x01, 0x02, 0x05, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}, out, err));
    EXPECT_NE(err.find("out of range"), std::string::npos) << err;
    // Empty: a WRITE writes at least one object.
    EXPECT_FALSE(try_decode_message({0x01, tag, 0x01, 0x01, 0x00}, out, err));
    EXPECT_NE(err.find("names no object"), std::string::npos) << err;
    // A one-object set at id 0 is fine.
    ASSERT_TRUE(try_decode_message({0x01, tag, 0x01, 0x01, 0x01, 0x00}, out, err)) << err;
  }
  // A kListPush replication record must name its WRITE's objects too; other
  // record kinds carry no object set.
  ReplRecord rec;
  rec.kind = ReplRecord::kListPush;
  EXPECT_FALSE(try_decode_message(encode_message(Message{kInvalidTxn, ReplAppendReq{1, 0, {rec}}}),
                                  out, err));
  EXPECT_NE(err.find("names no object"), std::string::npos) << err;
  rec.kind = ReplRecord::kInsert;
  ASSERT_TRUE(try_decode_message(encode_message(Message{kInvalidTxn, ReplAppendReq{1, 0, {rec}}}),
                                 out, err))
      << err;
}

TEST(Codec, TryDecodeRejectsMalformedServerShares) {
  Message out;
  std::string err;
  // txn 0, tag 0 (write-val), head 0 (ack the sender, nothing folded), key
  // (1, w0), then the object set with a value after each id.
  EXPECT_FALSE(try_decode_message({0x01, 0x00, 0x00, 0x01, 0x01, 0x00}, out, err));
  EXPECT_NE(err.find("names no object"), std::string::npos) << err;
  EXPECT_FALSE(try_decode_message({0x01, 0x00, 0x00, 0x01, 0x01, 0x02, 0x05, 0x02, 0x00, 0x04},
                                  out, err));
  EXPECT_NE(err.find("strictly ascending"), std::string::npos) << err;
  ASSERT_TRUE(try_decode_message({0x01, 0x00, 0x00, 0x01, 0x01, 0x02, 0x05, 0x02, 0x01, 0x04},
                                 out, err))
      << err;
  EXPECT_EQ(std::get<WriteValReq>(out.payload).writes,
            (std::vector<std::pair<ObjectId, Value>>{{5, 1}, {6, 2}}));
  // Head 2 * 2^32: an ack node past the 32-bit ids.  Head 1: a folded
  // update-coor, whose W may not be empty.
  EXPECT_FALSE(try_decode_message({0x01, 0x00, 0x80, 0x80, 0x80, 0x80, 0x20, 0x01, 0x01, 0x01,
                                   0x05, 0x01},
                                  out, err));
  EXPECT_NE(err.find("ack node"), std::string::npos) << err;
  EXPECT_FALSE(try_decode_message({0x01, 0x00, 0x01, 0x01, 0x01, 0x01, 0x05, 0x01, 0x00}, out,
                                  err));
  EXPECT_NE(err.find("folded update-coor names no object"), std::string::npos) << err;
  ASSERT_TRUE(try_decode_message({0x01, 0x00, 0x01, 0x01, 0x01, 0x01, 0x05, 0x01, 0x01, 0x05},
                                 out, err))
      << err;
  EXPECT_EQ(std::get<WriteValReq>(out.payload),
            (WriteValReq{WriteKey{1, 0}, {{5, -1}}, kInvalidNode, UpdateCoorReq{WriteKey{1, 0}, {5}}}));
  // Tag 1 (write-val-ack): key, then the acked set.
  EXPECT_FALSE(try_decode_message({0x01, 0x01, 0x01, 0x01, 0x00}, out, err));
  EXPECT_NE(err.find("names no object"), std::string::npos) << err;
  EXPECT_FALSE(try_decode_message({0x01, 0x01, 0x01, 0x01, 0x02, 0x05, 0x00}, out, err));
  EXPECT_NE(err.find("strictly ascending"), std::string::npos) << err;
  EXPECT_FALSE(try_decode_message(
      {0x01, 0x01, 0x01, 0x01, 0x02, 0x05, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}, out, err));
  EXPECT_NE(err.find("out of range"), std::string::npos) << err;
  // Tag 12 (finalize): key (1, writer 0), position 3, watermark 2, the set,
  // coor.
  const auto finalize = [](std::vector<std::uint8_t> set, std::uint8_t coor) {
    std::vector<std::uint8_t> b{0x01, 0x0C, 0x01, 0x01, 0x03, 0x02};
    b.insert(b.end(), set.begin(), set.end());
    b.push_back(coor);
    return b;
  };
  EXPECT_FALSE(try_decode_message(finalize({0x00}, 0), out, err));
  EXPECT_NE(err.find("names no object"), std::string::npos) << err;
  EXPECT_FALSE(try_decode_message(finalize({0x02, 0x05, 0x00}, 0), out, err));
  EXPECT_NE(err.find("strictly ascending"), std::string::npos) << err;
  EXPECT_FALSE(try_decode_message(finalize({0x01, 0x05}, 2), out, err));
  EXPECT_NE(err.find("coor flag"), std::string::npos) << err;
  ASSERT_TRUE(try_decode_message(finalize({0x01, 0x05}, 1), out, err)) << err;
  EXPECT_EQ(std::get<FinalizeReq>(out.payload),
            (FinalizeReq{WriteKey{1, 0}, 3, 2, {5}, true}));
}

TEST(Codec, TryDecodeRejectsMalformedReadBatches) {
  Message out;
  std::string err;
  // txn 0, tag 37 (read-val-batch), watermark 0, then the set with a key
  // (seq 1, writer 0) after each id.
  EXPECT_FALSE(try_decode_message({0x01, 0x25, 0x00, 0x00}, out, err));
  EXPECT_NE(err.find("names no object"), std::string::npos) << err;
  EXPECT_FALSE(
      try_decode_message({0x01, 0x25, 0x00, 0x02, 0x05, 0x01, 0x01, 0x00, 0x01, 0x01}, out, err));
  EXPECT_NE(err.find("strictly ascending"), std::string::npos) << err;
  ASSERT_TRUE(
      try_decode_message({0x01, 0x25, 0x00, 0x02, 0x05, 0x01, 0x01, 0x02, 0x01, 0x01}, out, err))
      << err;
  EXPECT_EQ(std::get<ReadValBatchReq>(out.payload),
            (ReadValBatchReq{0, {{5, WriteKey{1, 0}}, {7, WriteKey{1, 0}}}}));
  // Tag 39 (read-vals-batch): floor 0, then the bare set, its count doubled.
  EXPECT_FALSE(try_decode_message({0x01, 0x27, 0x00, 0x00}, out, err));
  EXPECT_NE(err.find("names no object"), std::string::npos) << err;
  EXPECT_FALSE(try_decode_message({0x01, 0x27, 0x00, 0x04, 0x05, 0x00}, out, err));
  EXPECT_NE(err.find("strictly ascending"), std::string::npos) << err;
  EXPECT_FALSE(
      try_decode_message({0x01, 0x27, 0x00, 0x04, 0x05, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}, out, err));
  EXPECT_NE(err.find("out of range"), std::string::npos) << err;
  ASSERT_TRUE(try_decode_message({0x01, 0x27, 0x00, 0x02, 0x00}, out, err)) << err;
  EXPECT_EQ(std::get<ReadValsBatchReq>(out.payload), (ReadValsBatchReq{0, {0}}));
  // An odd count announces the held list: never empty, strictly ascending,
  // each gap 2 * gap + list and a key; the set may then be empty, but no
  // object may sit in both.
  EXPECT_FALSE(try_decode_message({0x01, 0x27, 0x00, 0x01, 0x00}, out, err));
  EXPECT_NE(err.find("names no object"), std::string::npos) << err;
  EXPECT_FALSE(try_decode_message({0x01, 0x27, 0x00, 0x01, 0x02, 0x0A, 0x00, 0x00, 0x00, 0x00, 0x00},
                                  out, err));
  EXPECT_NE(err.find("strictly ascending"), std::string::npos) << err;
  EXPECT_FALSE(try_decode_message({0x01, 0x27, 0x00, 0x03, 0x05, 0x01, 0x0A, 0x00, 0x00}, out, err));
  EXPECT_NE(err.find("names an object twice"), std::string::npos) << err;
  ASSERT_TRUE(try_decode_message({0x01, 0x27, 0x00, 0x01, 0x02, 0x0B, 0x03, 0x02, 0x04, 0x00, 0x00},
                                 out, err))
      << err;
  EXPECT_EQ(std::get<ReadValsBatchReq>(out.payload),
            (ReadValsBatchReq{0, {}, std::nullopt,
                              {{5, WriteKey{3, 1}, true}, {7, kInitialKey, false}}}));
  // With the coor bit set (first varint odd) the get-tag-arr body must
  // follow, and its I names the READ's objects: never none, strictly
  // ascending.
  EXPECT_FALSE(try_decode_message({0x01, 0x27, 0x01, 0x02, 0x00}, out, err));
  EXPECT_FALSE(try_decode_message({0x01, 0x27, 0x01, 0x02, 0x00, 0x00, 0x00}, out, err));
  EXPECT_NE(err.find("names no object"), std::string::npos) << err;
  EXPECT_FALSE(
      try_decode_message({0x01, 0x27, 0x01, 0x02, 0x00, 0x02, 0x05, 0x00, 0x00}, out, err));
  EXPECT_NE(err.find("strictly ascending"), std::string::npos) << err;
  ASSERT_TRUE(
      try_decode_message({0x01, 0x27, 0x03, 0x02, 0x00, 0x02, 0x00, 0x05, 0x03}, out, err))
      << err;
  EXPECT_EQ(std::get<ReadValsBatchReq>(out.payload),
            (ReadValsBatchReq{1, {0}, GetTagArrReq{{0, 5}, 3}}));
  // Tag 40 (read-vals-batch-resp): 4 * count + kind, where kind 3 means
  // nothing and a kind's body must follow the entries.
  EXPECT_FALSE(try_decode_message({0x01, 0x28, 0x03}, out, err));
  EXPECT_NE(err.find("tag-array kind"), std::string::npos) << err;
  EXPECT_FALSE(try_decode_message({0x01, 0x28, 0x07, 0x05, 0x00}, out, err));
  EXPECT_NE(err.find("tag-array kind"), std::string::npos) << err;
  EXPECT_FALSE(try_decode_message({0x01, 0x28, 0x01}, out, err));  // kind 1, no body
  EXPECT_FALSE(try_decode_message({0x01, 0x28, 0x02, 0x04, 0x02, 0x00}, out, err));  // kind 2
  ASSERT_TRUE(try_decode_message({0x01, 0x28, 0x01, 0x04, 0x02, 0x00}, out, err)) << err;
  EXPECT_EQ(std::get<ReadValsBatchResp>(out.payload),
            (ReadValsBatchResp{{}, GetTagArrResp{4, 2, {}}}));
}

TEST(Codec, TryDecodeRejectsMalformedModeDeltas) {
  Message out;
  std::string err;
  // txn 0, tag 36, tag 5, watermark 3, no entries, then the mode fields.
  const std::vector<std::uint8_t> head{0x01, 0x24, 0x05, 0x03, 0x00};
  const auto with = [&head](std::vector<std::uint8_t> tail) {
    std::vector<std::uint8_t> b = head;
    b.insert(b.end(), tail.begin(), tail.end());
    return b;
  };
  // The mode fields are uv(epoch), then uv(0) for the steady state or
  // uv(base + 1) and the C-mode and B-mode sets.
  // epoch 6, base 4, C {9}, B {1}: valid.
  ASSERT_TRUE(try_decode_message(with({0x06, 0x05, 0x01, 0x09, 0x01, 0x01}), out, err)) << err;
  // epoch 6, steady: base 6 and no flips.
  ASSERT_TRUE(try_decode_message(with({0x06, 0x00}), out, err)) << err;
  EXPECT_EQ(std::get<AdaptTagArrResp>(out.payload), (AdaptTagArrResp{5, 3, {}, 6, 6, {}, {}}));
  // The steady state carries no sets.
  EXPECT_FALSE(try_decode_message(with({0x06, 0x00, 0x00, 0x00}), out, err));
  EXPECT_NE(err.find("trailing bytes"), std::string::npos) << err;
  // ...and has one encoding: its long form is refused.
  EXPECT_FALSE(try_decode_message(with({0x06, 0x07, 0x00, 0x00}), out, err));
  EXPECT_NE(err.find("steady"), std::string::npos) << err;
  // A base past the epoch.
  EXPECT_FALSE(try_decode_message(with({0x06, 0x08, 0x00, 0x00}), out, err));
  EXPECT_NE(err.find("past its epoch"), std::string::npos) << err;
  // A snapshot (base 0) that lists B-mode objects.
  EXPECT_FALSE(try_decode_message(with({0x06, 0x01, 0x00, 0x01, 0x01}), out, err));
  EXPECT_NE(err.find("snapshot"), std::string::npos) << err;
  // A repeated C-mode id.
  EXPECT_FALSE(try_decode_message(with({0x06, 0x05, 0x02, 0x09, 0x00, 0x00}), out, err));
}

TEST(Codec, TryDecodeRefusesIdsPastTheirRange) {
  // Object and node ids are 32 bits wide; a varint above 2^32 - 1 is
  // refused, not truncated onto a small id.
  Message out;
  std::string err;
  // simple-read of object 2^32 + 1, which truncation read as object 1.
  EXPECT_FALSE(try_decode_message({0x01, 0x18, 0x81, 0x80, 0x80, 0x80, 0x10}, out, err));
  EXPECT_NE(err.find("out of range"), std::string::npos) << err;
  // The largest object id still decodes.
  ASSERT_TRUE(try_decode_message({0x01, 0x18, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}, out, err)) << err;
  EXPECT_EQ(std::get<SimpleReadReq>(out.payload).obj, 0xFFFFFFFFu);
  // A node id rides as node + 1 (kInvalidNode as 0), so 2^32 names no
  // node: a node-down notice of it is refused...
  EXPECT_FALSE(try_decode_message({0x00, 0x23, 0x80, 0x80, 0x80, 0x80, 0x10}, out, err));
  EXPECT_NE(err.find("out of range"), std::string::npos) << err;
  // ...and so is a write key whose writer varint is 2^32 + 1: a
  // write-val-ack of key (1, that writer) for object 0.
  EXPECT_FALSE(try_decode_message({0x01, 0x01, 0x01, 0x81, 0x80, 0x80, 0x80, 0x10, 0x01, 0x00},
                                  out, err));
  EXPECT_NE(err.find("out of range"), std::string::npos) << err;
}

TEST(Codec, TryDecodeRejectsHugeListCounts) {
  // A history count of 2^63 inside a tag-arr used to reach vector::reserve
  // unchecked; it must be a decode error like any other bad length.
  Message out;
  std::string err;
  const std::vector<std::uint8_t> bytes{0x01, 0x07, 0x01, 0x00, 0x01, 0x02, 0x01, 0x00, 0x80,
                                        0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01};
  EXPECT_FALSE(try_decode_message(bytes, out, err));
  // The same for a read-vals-batch-resp, whose count shares a varint with
  // the tag-array kind.
  EXPECT_FALSE(try_decode_message(
      {0x01, 0x28, 0xFC, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}, out, err));
  EXPECT_NE(err.find("exceeds buffer"), std::string::npos) << err;
}

}  // namespace
}  // namespace snowkit

// VersionStore: the per-server Vals set of the paper's pseudocode, and the
// coordinator List's tag-array answers.
#include <gtest/gtest.h>

#include "msg/codec.hpp"
#include "proto/adaptive/adaptive.hpp"
#include "proto/version_store.hpp"

namespace snowkit {
namespace {

TEST(VersionStore, InitialVersionPresent) {
  VersionStore s;
  EXPECT_TRUE(s.has(kInitialKey));
  EXPECT_EQ(s.get(kInitialKey), kInitialValue);
  EXPECT_EQ(s.size(), 1u);
}

TEST(VersionStore, CustomInitialValue) {
  VersionStore s(42);
  EXPECT_EQ(s.get(kInitialKey), 42);
}

TEST(VersionStore, InsertAndGet) {
  VersionStore s;
  const WriteKey k{1, 7};
  s.insert(k, 99);
  EXPECT_TRUE(s.has(k));
  EXPECT_EQ(s.get(k), 99);
  EXPECT_EQ(s.size(), 2u);
}

TEST(VersionStore, InsertOverwritesSameKey) {
  VersionStore s;
  const WriteKey k{1, 7};
  s.insert(k, 1);
  s.insert(k, 2);
  EXPECT_EQ(s.get(k), 2);
  EXPECT_EQ(s.size(), 2u);
}

TEST(VersionStore, LastInsertedNamesTheNewestInsertEvenOnceItIsPruned) {
  VersionStore s;
  EXPECT_EQ(s.last_inserted(), kInitialKey);
  const WriteKey a{1, 0};
  const WriteKey b{1, 1};
  s.insert(b, 20);
  s.insert(a, 10);  // arrival order, not key order
  EXPECT_EQ(s.last_inserted(), a);
  s.insert(b, 21);  // an overwrite counts too
  EXPECT_EQ(s.last_inserted(), b);
  // b finalized at 1 and a at 2; a watermark of 2 keeps only a, so the
  // last-inserted key names a pruned version and try_get misses.
  s.finalize(b, 1);
  s.finalize(a, 2);
  s.advance_watermark(2);
  EXPECT_EQ(s.last_inserted(), b);
  EXPECT_FALSE(s.try_get(s.last_inserted()).has_value());
}

TEST(VersionStore, ChainPastLeavesOutTheHeldVersionAndAllItSupersedes) {
  VersionStore s;
  const WriteKey a{1, 0};
  const WriteKey b{1, 1};
  const WriteKey c{2, 0};
  s.insert(a, 10);
  s.insert(b, 20);
  s.insert(c, 30);
  s.finalize(a, 1);
  s.finalize(b, 2);  // c is inserted but not listed yet
  const auto keys = [](const std::vector<Version>& vs) {
    std::vector<WriteKey> out;
    for (const Version& v : vs) out.push_back(v.key);
    return out;
  };
  // Holding a, listed at 1: the initial version is older than a, and a is
  // held, so b and the unlisted c remain.
  EXPECT_EQ(keys(s.chain_past(a, 0)), (std::vector<WriteKey>{b, c}));
  // Holding b, listed at 2: only c.  A floor above the held position wins.
  EXPECT_EQ(keys(s.chain_past(b, 0)), (std::vector<WriteKey>{c}));
  EXPECT_EQ(keys(s.chain_past(a, 2)), (std::vector<WriteKey>{b, c}));
  // The initial version is held at position 0, and an unlisted or unknown
  // held version trims nothing but itself.
  EXPECT_EQ(keys(s.chain_past(kInitialKey, 0)), (std::vector<WriteKey>{a, b, c}));
  EXPECT_EQ(keys(s.chain_past(c, 0)), (std::vector<WriteKey>{kInitialKey, a, b}));
  EXPECT_EQ(keys(s.chain_past(WriteKey{9, 9}, 1)), (std::vector<WriteKey>{a, b, c}));
}

TEST(VersionStore, TryGetMissing) {
  VersionStore s;
  EXPECT_FALSE(s.try_get(WriteKey{9, 9}).has_value());
  EXPECT_TRUE(s.try_get(kInitialKey).has_value());
}

TEST(VersionStore, AllReturnsEveryVersion) {
  VersionStore s;
  s.insert(WriteKey{1, 0}, 10);
  s.insert(WriteKey{1, 1}, 11);
  auto all = s.all();
  EXPECT_EQ(all.size(), 3u);
  // Keys are distinct.
  EXPECT_NE(all[0].key, all[1].key);
  EXPECT_NE(all[1].key, all[2].key);
}

TEST(VersionStore, EraseRemoves) {
  VersionStore s;
  const WriteKey k{3, 3};
  s.insert(k, 5);
  EXPECT_TRUE(s.erase(k));
  EXPECT_FALSE(s.has(k));
  EXPECT_FALSE(s.erase(k));
}

TEST(VersionStore, GetMissingAborts) {
  VersionStore s;
  EXPECT_DEATH(s.get(WriteKey{5, 5}), "not in Vals");
}

TEST(VersionStore, KeysFromDifferentWritersDistinct) {
  VersionStore s;
  s.insert(WriteKey{1, 0}, 10);
  s.insert(WriteKey{1, 1}, 20);  // same seq, different writer
  EXPECT_EQ(s.get(WriteKey{1, 0}), 10);
  EXPECT_EQ(s.get(WriteKey{1, 1}), 20);
}

/// A CoorList over k objects with three WRITEs to objects 7, 200 and k-1,
/// the first two finalized.
CoorList three_writes(std::size_t k) {
  CoorList list(k);
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    list.push(WriteKey{seq, 1}, std::vector<ObjectId>{7, 200, static_cast<ObjectId>(k - 1)});
  }
  list.finalize(2);
  return list;
}

TEST(CoorList, TagArrAnswersOnlyTheReadSet) {
  const CoorList list = three_writes(256);
  const GetTagArrReq req = tag_arr_req({200, 7, 200});
  EXPECT_EQ(req.objs, (std::vector<ObjectId>{7, 200}));

  const GetTagArrResp b = list.tag_arr(req.objs, /*with_history=*/false);
  EXPECT_EQ(b.tag, 3u);
  EXPECT_EQ(b.watermark, 2u);
  ASSERT_EQ(b.entries.size(), 2u);
  EXPECT_EQ(b.entries[0].obj, 7u);
  EXPECT_EQ(b.entries[1].obj, 200u);
  for (const TagArrEntry& e : b.entries) {
    EXPECT_EQ(e.latest, (WriteKey{3, 1}));
    EXPECT_TRUE(e.history.empty());
  }

  // Algorithm C adds each object's live history: the anchor at the
  // watermark plus everything above it.
  const GetTagArrResp c = list.tag_arr(req.objs, /*with_history=*/true);
  const std::vector<ListedKey> live{ListedKey{2, WriteKey{2, 1}}, ListedKey{3, WriteKey{3, 1}}};
  EXPECT_EQ(tag_entry(c.entries, 7).history, live);
  EXPECT_EQ(tag_entry(c.entries, 200).history, live);

  // An untouched object still answers with the initial key.
  EXPECT_EQ(list.tag_arr({9}, false).entries.at(0).latest, kInitialKey);
}

TEST(CoorList, TagArrSkipsObjectsOutsideTheKeySpace) {
  // Only a malformed request can name an id >= k; the coordinator answers
  // for the rest instead of throwing from latest().
  const CoorList list = three_writes(256);
  const GetTagArrResp resp = list.tag_arr({7, 256, 4'000'000'000u}, /*with_history=*/true);
  ASSERT_EQ(resp.entries.size(), 1u);
  EXPECT_EQ(resp.entries[0].obj, 7u);
  EXPECT_TRUE(list.tag_arr({}, true).entries.empty());
}

TEST(CoorList, AdmitsOnlyWriteSetsInsideTheKeySpace) {
  const CoorList list(4);
  EXPECT_TRUE(list.admits(1, UpdateCoorReq{WriteKey{1, 1}, {0, 3}}));
  EXPECT_TRUE(list.admits(1, UpdateCoorReq{WriteKey{1, 1}, {2}}));
  EXPECT_FALSE(list.admits(1, UpdateCoorReq{WriteKey{1, 1}, {0, 4}}));
  EXPECT_FALSE(list.admits(1, UpdateCoorReq{WriteKey{1, 1}, {4'000'000'000u}}));
  EXPECT_FALSE(list.admits(1, UpdateCoorReq{WriteKey{1, 1}, {}}));
}

TEST(TagArrSize, FixedReadSetCostsTheSameBytesAtAnyObjectCount) {
  // The get-tag-arr exchange scales with the READ, not with k: for one
  // 2-object READ the request and the algo-b, algo-c and adaptive replies
  // encode to the same size at every object count.  The adaptive reply
  // carries the coordinator's mode delta for a reader one flip behind.
  std::vector<std::vector<std::size_t>> sizes;
  for (const std::size_t k : {256u, 4096u, 65536u}) {
    const CoorList list = three_writes(k);
    const GetTagArrReq req = tag_arr_req({200, 7});
    const GetTagArrResp b = list.tag_arr(req.objs, /*with_history=*/false);
    const GetTagArrResp c = list.tag_arr(req.objs, /*with_history=*/true);
    ModeTable modes(k);
    modes.set(7, true);
    modes.set(200, true);
    AdaptTagArrResp adapt{b.tag, b.watermark, b.entries};
    modes.answer(/*reader_epoch=*/1, adapt);
    EXPECT_EQ(adapt.mode_base, 1u);
    sizes.push_back({encoded_size(Message{5, req}), encoded_size(Message{5, b}),
                     encoded_size(Message{5, c}), encoded_size(Message{5, adapt})});
  }
  EXPECT_EQ(sizes[0], sizes[1]);
  EXPECT_EQ(sizes[0], sizes[2]);
  // And small in absolute terms: a request of a few bytes, one key per object.
  EXPECT_LE(sizes[0][0], 8u);
  EXPECT_LE(sizes[0][1], 16u);
}

TEST(WriteSetSize, FixedWriteSetCostsTheSameBytesAtAnyObjectCount) {
  // The write path scales with the WRITE, not with k: a 2-object WRITE's
  // update-coor, info-reader and replicated kListPush record encode to the
  // same size at every object count.
  std::vector<std::vector<std::size_t>> sizes;
  for (const std::size_t k : {256u, 4096u, 65536u}) {
    std::vector<std::pair<ObjectId, Value>> writes{{200, 1}, {7, 2}};
    const std::vector<ObjectId> objs = write_set(writes);
    EXPECT_EQ(objs, (std::vector<ObjectId>{7, 200}));
    EXPECT_TRUE(CoorList(k).admits(3, UpdateCoorReq{WriteKey{9, 3}, objs}));
    ReplRecord push;
    push.kind = ReplRecord::kListPush;
    push.key = WriteKey{9, 3};
    push.position = 40;
    push.objs = objs;
    push.txn = 12;
    push.writer = 3;
    sizes.push_back({encoded_size(Message{12, UpdateCoorReq{WriteKey{9, 3}, objs}}),
                     encoded_size(Message{12, InfoReaderReq{WriteKey{9, 3}, objs}}),
                     encoded_size(Message{kInvalidTxn, ReplAppendReq{1, 40, {push}}})});
  }
  EXPECT_EQ(sizes[0], sizes[1]);
  EXPECT_EQ(sizes[0], sizes[2]);
  // And small in absolute terms: a key plus a few bytes of gaps.
  EXPECT_LE(sizes[0][0], 8u);
  EXPECT_LE(sizes[0][1], 8u);
}

TEST(WriteKeyTest, OrderingAndHash) {
  EXPECT_LT((WriteKey{1, 0}), (WriteKey{2, 0}));
  EXPECT_LT((WriteKey{1, 0}), (WriteKey{1, 1}));
  std::hash<WriteKey> h;
  EXPECT_NE(h(WriteKey{1, 0}), h(WriteKey{1, 1}));
  EXPECT_EQ(to_string(kInitialKey), "k0");
  EXPECT_EQ(to_string(WriteKey{2, 3}), "(2,w3)");
}

}  // namespace
}  // namespace snowkit

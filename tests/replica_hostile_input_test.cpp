// A backup applies what its peer ships and what its WAL replays, and
// neither is trusted: a well-formed record of a valid kind that cannot take
// effect here (an object id >= k, a finalize of a version the replica does
// not hold, a List record on a replica without a List or off its next
// position) is dropped with a warning instead of aborting the replica.  The
// record stays in the log, so sequence numbers keep matching the peer's,
// and records after it still apply.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "proto/replica.hpp"

namespace snowkit {
namespace {

constexpr std::size_t kObjects = 4;
const WriteKey kKey{1, 9};

ReplRecord insert_rec(ObjectId obj, const WriteKey& key, Value v) {
  ReplRecord r;
  r.kind = ReplRecord::kInsert;
  r.obj = obj;
  r.key = key;
  r.value = v;
  return r;
}

ReplRecord finalize_rec(ObjectId obj, const WriteKey& key, Tag position) {
  ReplRecord r;
  r.kind = ReplRecord::kFinalize;
  r.obj = obj;
  r.key = key;
  r.position = position;
  return r;
}

ReplRecord push_rec(const WriteKey& key, Tag position, std::vector<ObjectId> objs) {
  ReplRecord r;
  r.kind = ReplRecord::kListPush;
  r.key = key;
  r.position = position;
  r.objs = std::move(objs);
  r.txn = 1;
  r.writer = 9;
  return r;
}

ReplRecord coor_finalize_rec(Tag position) {
  ReplRecord r;
  r.kind = ReplRecord::kCoorFinalize;
  r.position = position;
  return r;
}

/// A synced backup (node 1) of node 0 over `kObjects` objects, with a List
/// when `has_list`.
struct Backup {
  std::map<ObjectId, VersionStore> stores;
  std::optional<CoorList> list;
  std::unique_ptr<Replicator> repl;

  explicit Backup(bool has_list) {
    Replicator::Config cfg;
    cfg.self = 1;
    cfg.peer = 0;
    cfg.start_primary = false;
    cfg.has_list = has_list;
    cfg.num_objects = kObjects;
    if (has_list) list.emplace(kObjects);
    repl = std::make_unique<Replicator>(cfg, std::make_unique<MemWal>(),
                                        [](NodeId, Message) {},
                                        [](TimeNs, std::function<void()>) {}, &stores, &list);
    repl->boot();
    repl->consume(0, Message{kInvalidTxn, ReplJoinResp{0, 0, 0, {}}});
  }

  /// The peer ships `recs` as the next batch of its log.
  void ship(std::vector<ReplRecord> recs) {
    const std::uint64_t first = repl->log_size();
    repl->consume(0, Message{kInvalidTxn, ReplAppendReq{0, first, std::move(recs)}});
  }
};

TEST(ReplicaHostileInput, CoorFinalizeOnABackupWithoutAListIsDropped) {
  Backup b(/*has_list=*/false);
  b.ship({coor_finalize_rec(1)});
  b.ship({insert_rec(0, kKey, 5)});
  EXPECT_EQ(b.repl->log_size(), 2u);
  EXPECT_FALSE(b.list.has_value());
  EXPECT_EQ(b.stores.at(0).try_get(kKey), std::optional<Value>{5});
}

TEST(ReplicaHostileInput, ListPushOffTheNextPositionIsDropped) {
  Backup b(/*has_list=*/true);
  b.ship({push_rec(kKey, 5, {0})});            // the List yields 1 next
  b.ship({push_rec(kKey, 1, {0, 1u << 30})});  // an object >= k
  b.ship({push_rec(kKey, 1, {2})});
  EXPECT_EQ(b.repl->log_size(), 3u);
  EXPECT_EQ(b.list->tag(), 1u);
  EXPECT_EQ(b.list->latest(0), kInitialKey);
  EXPECT_EQ(b.list->latest(2), kKey);

  Backup no_list(/*has_list=*/false);
  no_list.ship({push_rec(kKey, 1, {0})});
  EXPECT_EQ(no_list.repl->log_size(), 1u);
  EXPECT_FALSE(no_list.list.has_value());
}

TEST(ReplicaHostileInput, FinalizeOfAVersionTheBackupDoesNotHoldIsDropped) {
  Backup b(/*has_list=*/false);
  b.ship({finalize_rec(0, kKey, 1)});            // no store for object 0 yet
  b.ship({insert_rec(0, kKey, 5)});
  b.ship({finalize_rec(0, WriteKey{7, 7}, 1)});  // a key never inserted
  b.ship({finalize_rec(0, kKey, 0)});            // position 0 is kappa_0's
  b.ship({finalize_rec(1u << 30, kKey, 1)});     // an object >= k
  EXPECT_EQ(b.repl->log_size(), 5u);
  EXPECT_EQ(b.stores.count(1u << 30), 0u);
  // None of them took List position 1; a valid finalize still does.
  const WriteKey other{2, 9};
  b.ship({insert_rec(0, other, 6)});
  EXPECT_TRUE(b.stores.at(0).can_finalize(other, 1));
  b.ship({finalize_rec(0, kKey, 1)});
  EXPECT_FALSE(b.stores.at(0).can_finalize(other, 1)) << "kKey holds position 1 now";
}

TEST(ReplicaHostileInput, InsertForAnObjectOutsideKIsDropped) {
  Backup b(/*has_list=*/false);
  b.ship({insert_rec(1u << 30, kKey, 5), insert_rec(3, kKey, 6)});
  EXPECT_EQ(b.repl->log_size(), 2u);
  EXPECT_EQ(b.stores.count(1u << 30), 0u);
  EXPECT_EQ(b.stores.at(3).try_get(kKey), std::optional<Value>{6});
}

TEST(ReplicaHostileInput, AWalHoldingUnappliableRecordsStillBoots) {
  // The same records replayed from a replica's own WAL at boot.
  auto owned = std::make_unique<MemWal>();
  MemWal* disk = owned.get();
  std::vector<std::uint8_t> bytes(kWalMagic, kWalMagic + kWalMagicLen);
  const auto frame = wal_frame_batch(ReplAppendReq{
      0, 0,
      {insert_rec(1u << 30, kKey, 5), finalize_rec(0, kKey, 1), coor_finalize_rec(1),
       push_rec(kKey, 3, {0}), insert_rec(2, kKey, 7)}});
  bytes.insert(bytes.end(), frame.begin(), frame.end());
  disk->bytes() = bytes;
  std::map<ObjectId, VersionStore> stores;
  std::optional<CoorList> list;
  Replicator::Config cfg;
  cfg.self = 1;
  cfg.peer = 0;
  cfg.num_objects = kObjects;
  Replicator repl(cfg, std::move(owned), [](NodeId, Message) {},
                  [](TimeNs, std::function<void()>) {}, &stores, &list);
  repl.boot();
  EXPECT_EQ(repl.log_size(), 5u);
  EXPECT_EQ(stores.count(1u << 30), 0u);
  EXPECT_EQ(stores.at(2).try_get(kKey), std::optional<Value>{7});
}

}  // namespace
}  // namespace snowkit

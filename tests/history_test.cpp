// HistoryRecorder: transaction bookkeeping, ordering counters, snapshots.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "history/history.hpp"

namespace snowkit {
namespace {

TEST(History, BeginFinishReadLifecycle) {
  HistoryRecorder rec(2);
  const TxnId id = rec.begin_read(5, {0, 1});
  {
    const History h = rec.snapshot();
    ASSERT_EQ(h.txns.size(), 1u);
    EXPECT_FALSE(h.txns[0].complete);
    EXPECT_TRUE(h.txns[0].is_read);
    EXPECT_EQ(h.txns[0].client, 5u);
  }
  rec.finish_read(id, {{0, 7}, {1, 8}}, /*tag=*/3, /*rounds=*/2, /*max_versions=*/1);
  const History h = rec.snapshot();
  EXPECT_TRUE(h.txns[0].complete);
  EXPECT_EQ(h.txns[0].tag, 3u);
  EXPECT_EQ(h.txns[0].rounds, 2);
  EXPECT_EQ(h.txns[0].reads[1].second, 8);
}

TEST(History, OrderCountersDefinePrecedence) {
  HistoryRecorder rec(1);
  const TxnId a = rec.begin_write(1, {{0, 1}});
  rec.finish_write(a, 1, 1);
  const TxnId b = rec.begin_read(2, {0});
  rec.finish_read(b, {{0, 1}}, 1, 1, 1);
  const History h = rec.snapshot();
  EXPECT_TRUE(History::precedes(*h.find(a), *h.find(b)));
  EXPECT_FALSE(History::precedes(*h.find(b), *h.find(a)));
}

TEST(History, ConcurrentTxnsDoNotPrecedeEachOther) {
  HistoryRecorder rec(1);
  const TxnId a = rec.begin_write(1, {{0, 1}});
  const TxnId b = rec.begin_read(2, {0});
  rec.finish_write(a, 1, 1);
  rec.finish_read(b, {{0, 1}}, 1, 1, 1);
  const History h = rec.snapshot();
  EXPECT_FALSE(History::precedes(*h.find(a), *h.find(b)));
  EXPECT_FALSE(History::precedes(*h.find(b), *h.find(a)));
}

TEST(History, IncompleteNeverPrecedes) {
  HistoryRecorder rec(1);
  const TxnId a = rec.begin_write(1, {{0, 1}});
  const TxnId b = rec.begin_read(2, {0});
  rec.finish_read(b, {{0, kInitialValue}}, 0, 1, 1);
  const History h = rec.snapshot();
  EXPECT_FALSE(History::precedes(*h.find(a), *h.find(b)));
}

TEST(History, CountsCompleted) {
  HistoryRecorder rec(1);
  const TxnId a = rec.begin_write(1, {{0, 1}});
  rec.begin_write(1, {{0, 2}});  // left incomplete
  const TxnId c = rec.begin_read(2, {0});
  rec.finish_write(a, 1, 1);
  rec.finish_read(c, {{0, 1}}, 1, 1, 1);
  const History h = rec.snapshot();
  EXPECT_EQ(h.completed_writes(), 1u);
  EXPECT_EQ(h.completed_reads(), 1u);
  EXPECT_EQ(h.txns.size(), 3u);
}

TEST(History, ThreadSafeConcurrentRecording) {
  HistoryRecorder rec(4);
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&rec, t] {
      for (int i = 0; i < kPerThread; ++i) {
        if (t % 2 == 0) {
          const TxnId id = rec.begin_write(static_cast<NodeId>(t), {{0, i}});
          rec.finish_write(id, kInvalidTag, 1);
        } else {
          const TxnId id = rec.begin_read(static_cast<NodeId>(t), {0});
          rec.finish_read(id, {{0, 0}}, kInvalidTag, 1, 1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  const History h = rec.snapshot();
  EXPECT_EQ(h.txns.size(), 4u * kPerThread);
  // Txn ids unique.
  std::set<TxnId> ids;
  for (const auto& t : h.txns) ids.insert(t.id);
  EXPECT_EQ(ids.size(), h.txns.size());
  // Order counters strictly increasing per txn (invoke < respond).
  for (const auto& t : h.txns) EXPECT_LT(t.invoke_order, t.respond_order);
}

TEST(History, FinishesInAnyOrderAcrossALongHistory) {
  // Clients finish out of begin order: evens newest-first, then odds
  // oldest-first.  Each finish must land on its own record, across the
  // id gaps that next_id() leaves between recorded transactions.
  HistoryRecorder rec(2);
  std::vector<TxnId> ids;
  TxnId gaps = 0;
  for (int i = 0; i < 2000; ++i) {
    for (int gap = 0; gap < i % 3; ++gap, ++gaps) rec.next_id();
    ids.push_back(i % 2 == 0 ? rec.begin_read(static_cast<NodeId>(i), {0})
                             : rec.begin_write(static_cast<NodeId>(i), {{1, i}}));
  }
  EXPECT_EQ(ids.back() - ids.front() + 1, 2000 + gaps);
  for (int i = 1998; i >= 0; i -= 2) {
    rec.finish_read(ids[static_cast<std::size_t>(i)], {{0, i}}, static_cast<Tag>(i), 1, 1);
  }
  for (int i = 1; i < 2000; i += 2) rec.finish_write(ids[static_cast<std::size_t>(i)], i, 2);
  const History h = rec.snapshot();
  EXPECT_EQ(h.completed_reads(), 1000u);
  EXPECT_EQ(h.completed_writes(), 1000u);
  for (int i = 0; i < 2000; ++i) {
    const TxnRecord* t = h.find(ids[static_cast<std::size_t>(i)]);
    ASSERT_NE(t, nullptr);
    EXPECT_EQ(t->client, static_cast<NodeId>(i));
    EXPECT_EQ(t->tag, static_cast<Tag>(i));
    if (i % 2 == 0) EXPECT_EQ(t->reads[0].second, i);
  }
}

TEST(History, NextIdAllocatesWithoutRecording) {
  HistoryRecorder rec(1);
  const TxnId a = rec.next_id();
  const TxnId b = rec.begin_read(1, {0});
  EXPECT_NE(a, b);
  EXPECT_EQ(rec.snapshot().txns.size(), 1u);
}

}  // namespace
}  // namespace snowkit

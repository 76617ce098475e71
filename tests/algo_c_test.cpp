// Algorithm C (§9): SNW + one-round, multi-version, MWMR (Theorem 5),
// including the feasibility descent and the bounded-version GC extension.
#include <gtest/gtest.h>

#include "checker/snow_monitor.hpp"
#include "checker/tag_order.hpp"
#include "core/run_workload.hpp"
#include "core/system.hpp"
#include "proto/algo_c/algo_c.hpp"
#include "sim/script.hpp"
#include "sim/sim_runtime.hpp"

namespace snowkit {
namespace {

struct Rig {
  SimRuntime sim;
  HistoryRecorder rec;
  std::unique_ptr<ProtocolSystem> sys;

  Rig(std::size_t k, std::size_t readers, std::size_t writers, std::uint64_t seed = 1,
      bool gc = false)
      : sim(make_uniform_delay(10, 5000, seed)), rec(k) {
    AlgoCOptions opts;
    opts.gc_versions = gc;
    sys = build_algo_c(sim, rec, SystemConfig{k, readers, writers}, opts);
  }
};

TEST(AlgoC, ExhaustedRetriesGiveUpInsteadOfAborting) {
  // A List that names a version no server holds (what a replication layer
  // losing an acknowledged insert produces) makes every descent infeasible.
  // After its retry budget the reader must give up — the READ stays
  // unanswered, a liveness conviction — rather than abort the process.
  Rig rig(2, 1, 1, 1, /*gc=*/true);
  const NodeId reader = rig.sys->reader(0).node_id();
  rig.sim.hold_matching([reader](NodeId from, NodeId, const Message&) { return from == reader; });
  bool completed = false;
  invoke_read(rig.sim, rig.sys->reader(0), {0, 1}, [&](const TxnResult&) { completed = true; });
  rig.sim.run_until_idle();
  ASSERT_FALSE(rig.sim.held().empty());
  const TxnId txn = rig.sim.held().front().msg.txn;
  const WriteKey lost{5, 9};
  GetTagArrResp ta{1, 0, {}};
  for (const ObjectId obj : {0u, 1u}) ta.entries.push_back({obj, lost, {ListedKey{1, lost}}});
  for (int attempt = 0; attempt < 120; ++attempt) {
    rig.sim.send(0, reader, Message{txn, ta});
    for (const ObjectId obj : {0u, 1u}) {
      rig.sim.send(obj, reader,
                   Message{txn, ReadValsBatchResp{{{obj, {Version{kInitialKey, 0}}}}}});
    }
    rig.sim.run_until_idle();
  }
  EXPECT_FALSE(completed);
  // One tag-array request per attempt (folded into s*'s read-vals-batch),
  // and no more once the budget is spent.
  const script::Pred asks_tag_arr = script::asks_tag_arr();
  std::size_t tag_arr_requests = 0;
  for (const auto& h : rig.sim.held()) {
    tag_arr_requests += asks_tag_arr(h.from, h.to, h.msg) ? 1 : 0;
  }
  EXPECT_EQ(tag_arr_requests, 100u);
}

TEST(AlgoC, WriteThenReadRoundTrip) {
  Rig rig(3, 1, 1);
  invoke_write(rig.sim, rig.sys->writer(0), {{0, 1}, {2, 3}}, [](const TxnResult&) {});
  rig.sim.run_until_idle();
  TxnResult result;
  invoke_read(rig.sim, rig.sys->reader(0), {0, 1, 2}, [&](const TxnResult& r) { result = r; });
  rig.sim.run_until_idle();
  EXPECT_EQ(result.values[0].second, 1);
  EXPECT_EQ(result.values[1].second, kInitialValue);
  EXPECT_EQ(result.values[2].second, 3);
}

TEST(AlgoC, OneRoundMultipleVersions) {
  Rig rig(3, 2, 3);
  WorkloadSpec spec;
  spec.ops_per_reader = 30;
  spec.ops_per_writer = 20;
  spec.read_span = 2;
  WorkloadDriver driver(rig.sim, *rig.sys, spec);
  driver.start();
  rig.sim.run_until_idle();
  const History h = rig.rec.snapshot();
  const auto report = analyze_snow_trace(rig.sim.trace(), 3, h);
  EXPECT_TRUE(report.satisfies_n()) << (report.violations.empty() ? "" : report.violations[0]);
  EXPECT_EQ(report.max_read_rounds, 1);      // the one-round property
  EXPECT_GT(report.max_versions_per_response, 1);  // ...paid for in versions
  EXPECT_EQ(max_read_rounds(h), 1);
}

TEST(AlgoC, StrictSerializabilityUnderManyWritersAndReaders) {
  for (std::uint64_t seed : {21ull, 22ull, 23ull, 24ull}) {
    Rig rig(4, 3, 3, seed);
    WorkloadSpec spec;
    spec.ops_per_reader = 50;
    spec.ops_per_writer = 25;
    spec.read_span = 3;
    spec.write_span = 2;
    spec.seed = seed;
    WorkloadDriver driver(rig.sim, *rig.sys, spec);
    driver.start();
    rig.sim.run_until_idle();
    auto verdict = check_tag_order(rig.rec.snapshot());
    EXPECT_TRUE(verdict.ok) << "seed " << seed << ": " << verdict.explanation;
  }
}

TEST(AlgoC, DescentHandlesOvertakingReadVals) {
  // Force the race the descent exists for: the reader's read-vals-batch
  // reaches s_y BEFORE the concurrent write lands there, while get-tag-arr
  // reaches the coordinator AFTER update-coor.  kappa_y is then missing from
  // Vals_y and the reader must fall back to the previous cut.  s* is a third
  // server the READ does not read, so its get-tag-arr travels alone.
  SimRuntime sim;
  HistoryRecorder rec(3);
  AlgoCOptions opts;
  opts.gc_versions = false;  // GC-off: the descent must SETTLE (no retry path)
  opts.coordinator = 2;
  auto sys = build_algo_c(sim, rec, SystemConfig{3, 1, 1}, opts);
  sim.start();

  // Script: hold W's write-val to s_y (object 1) and the READ's messages.
  sim.hold_matching(script::any_of(
      {script::all_of({script::payload_is("write-val"), script::to_node(1)}),
       script::payload_is("read-vals-batch"), script::payload_is("get-tag-arr")}));

  bool w_done = false;
  invoke_write(sim, sys->writer(0), {{0, 10}, {1, 20}}, [&](const TxnResult&) { w_done = true; });
  sim.run_until_idle();  // write-val@s_x delivered+acked; write-val@s_y held

  TxnResult result;
  bool r_done = false;
  invoke_read(sim, sys->reader(0), {0, 1}, [&](const TxnResult& r) {
    result = r;
    r_done = true;
  });
  sim.run_until_idle();

  // Deliver read-vals-batch to BOTH servers now (s_y has no new version
  // yet)...
  ASSERT_TRUE(script::release_one(sim, script::all_of({script::payload_is("read-vals-batch"),
                                                       script::to_node(0)})));
  ASSERT_TRUE(script::release_one(sim, script::all_of({script::payload_is("read-vals-batch"),
                                                       script::to_node(1)})));
  sim.run_until_idle();
  // ...then let the write finish (write-val@s_y, update-coor)...
  ASSERT_TRUE(script::release_one(sim, script::payload_is("write-val")));
  sim.run_until_idle();
  ASSERT_TRUE(w_done);
  // ...and only now deliver get-tag-arr: t_r names the new write, whose key
  // is absent from the reader's Vals_y snapshot.
  ASSERT_TRUE(script::release_one(sim, script::payload_is("get-tag-arr")));
  sim.run_until_idle();
  ASSERT_TRUE(r_done);
  // Descent must have settled on the old consistent cut.
  EXPECT_EQ(result.values[0].second, kInitialValue);
  EXPECT_EQ(result.values[1].second, kInitialValue);
  auto verdict = check_tag_order(rec.snapshot());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

TEST(AlgoC, DescentHandlesOvertakingReadValsWithAFoldedTagArray) {
  // The same race with s* on s_x's shard: get-tag-arr rides s_x's
  // read-vals-batch, so the tag array and Vals_x are read in one step.
  // Vals_y is still read before the write lands there and the tag array
  // after update-coor, so kappa_y is again missing from Vals_y.
  SimRuntime sim;
  HistoryRecorder rec(2);
  AlgoCOptions opts;
  opts.gc_versions = false;  // GC-off: the descent must SETTLE (no retry path)
  auto sys = build_algo_c(sim, rec, SystemConfig{2, 1, 1}, opts);
  sim.start();

  sim.hold_matching(script::any_of(
      {script::all_of({script::payload_is("write-val"), script::to_node(1)}),
       script::payload_is("read-vals-batch"), script::asks_tag_arr()}));

  bool w_done = false;
  invoke_write(sim, sys->writer(0), {{0, 10}, {1, 20}}, [&](const TxnResult&) { w_done = true; });
  sim.run_until_idle();  // write-val@s_x delivered+acked; write-val@s_y held

  TxnResult result;
  bool r_done = false;
  invoke_read(sim, sys->reader(0), {0, 1}, [&](const TxnResult& r) {
    result = r;
    r_done = true;
  });
  sim.run_until_idle();
  ASSERT_EQ(sim.held().size(), 3u);  // write-val@s_y and one batch per server: no get-tag-arr

  // Deliver read-vals-batch to s_y now (no new version yet)...
  ASSERT_TRUE(script::release_one(sim, script::all_of({script::payload_is("read-vals-batch"),
                                                       script::to_node(1)})));
  sim.run_until_idle();
  // ...then let the write finish (write-val@s_y, update-coor)...
  ASSERT_TRUE(script::release_one(sim, script::payload_is("write-val")));
  sim.run_until_idle();
  ASSERT_TRUE(w_done);
  // ...and only now deliver s_x's batch with the folded get-tag-arr: t_r
  // names the new write, whose key is absent from the Vals_y snapshot.
  ASSERT_TRUE(script::release_one(sim, script::all_of({script::asks_tag_arr(),
                                                       script::to_node(0)})));
  sim.run_until_idle();
  ASSERT_TRUE(r_done);
  EXPECT_EQ(result.values[0].second, kInitialValue);
  EXPECT_EQ(result.values[1].second, kInitialValue);
  auto verdict = check_tag_order(rec.snapshot());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

TEST(AlgoC, GcBoundsResponseSizes) {
  // Without GC the response size grows with the whole write history; with GC
  // it stays bounded by |W| + 1: one anchor version plus the writes
  // concurrent with some in-flight READ (the watermark cannot pass a
  // registered read's floor).  With closed-loop reads back to back, each
  // writer can overlap a read window with at most two WRITEs under fixed
  // delays, so the bound here is 2 * writers + 1 — independent of the 40-op
  // history length either way.
  auto run = [](bool gc) {
    SimRuntime sim(make_fixed_delay(1000));
    HistoryRecorder rec(2);
    AlgoCOptions opts;
    opts.gc_versions = gc;
    auto sys = build_algo_c(sim, rec, SystemConfig{2, 1, 2}, opts);
    WorkloadSpec spec;
    spec.ops_per_reader = 40;
    spec.ops_per_writer = 40;
    spec.read_span = 2;
    spec.write_span = 2;
    WorkloadDriver driver(sim, *sys, spec);
    driver.start();
    sim.run_until_idle();
    auto verdict = check_tag_order(rec.snapshot());
    EXPECT_TRUE(verdict.ok) << "gc=" << gc << ": " << verdict.explanation;
    return max_read_versions(rec.snapshot());
  };
  const int without_gc = run(false);
  const int with_gc = run(true);
  EXPECT_GT(without_gc, 10);      // grows with history length
  EXPECT_LE(with_gc, 2 * 2 + 1);  // |W| + 1 over the read window
}

TEST(AlgoC, TheReadFloorTrimsListsWithoutCostingARound) {
  // Each READ's batches carry the tag of the reader's last READ as a read
  // floor, and servers leave the finalized versions older than the newest
  // one at or below it out of the response.  The descent never needs them:
  // every position up to the floor was stored everywhere before the READ
  // began.  So a fault-free GC'd fleet still takes one round per READ; a
  // floor set any higher trims versions some cut needs and shows up here as
  // GC-race retries.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SimRuntime sim(make_uniform_delay(10, 40'000, seed));
    HistoryRecorder rec(3);
    auto sys = build_algo_c(sim, rec, SystemConfig{3, 2, 3});
    WorkloadSpec spec;
    spec.ops_per_reader = 60;
    spec.ops_per_writer = 60;
    spec.read_span = 2;
    spec.write_span = 2;
    spec.seed = seed;
    WorkloadDriver driver(sim, *sys, spec);
    driver.start();
    sim.run_until_idle();
    const History h = rec.snapshot();
    auto verdict = check_tag_order(h);
    EXPECT_TRUE(verdict.ok) << "seed " << seed << ": " << verdict.explanation;
    EXPECT_EQ(max_read_rounds(h), 1) << "seed " << seed;
  }
}

TEST(AlgoC, GcPreservesStrictSerializabilityAcrossSeeds) {
  for (std::uint64_t seed = 31; seed < 39; ++seed) {
    Rig rig(3, 2, 3, seed, /*gc=*/true);
    WorkloadSpec spec;
    spec.ops_per_reader = 40;
    spec.ops_per_writer = 20;
    spec.read_span = 2;
    spec.seed = seed;
    WorkloadDriver driver(rig.sim, *rig.sys, spec);
    driver.start();
    rig.sim.run_until_idle();
    auto verdict = check_tag_order(rig.rec.snapshot());
    EXPECT_TRUE(verdict.ok) << "seed " << seed << ": " << verdict.explanation;
  }
}

TEST(AlgoC, CoordinatorAlsoServesItsObject) {
  Rig rig(2, 1, 1);
  invoke_write(rig.sim, rig.sys->writer(0), {{0, 77}}, [](const TxnResult&) {});
  rig.sim.run_until_idle();
  TxnResult result;
  invoke_read(rig.sim, rig.sys->reader(0), {0}, [&](const TxnResult& r) { result = r; });
  rig.sim.run_until_idle();
  EXPECT_EQ(result.values[0].second, 77);  // one read-vals-batch to s*, get-tag-arr folded in
}

}  // namespace
}  // namespace snowkit

// Optimistic one-version reads (the (inf,1) cell of Fig. 1(b)): strictly
// serializable, one version per response, one round when uncontended,
// unbounded rounds under adversarial write streams.
#include <gtest/gtest.h>

#include "checker/snow_monitor.hpp"
#include "checker/tag_order.hpp"
#include "core/run_workload.hpp"
#include "core/system.hpp"
#include "sim/script.hpp"
#include "sim/sim_runtime.hpp"

namespace snowkit {
namespace {

TEST(OccReads, UncontendedReadTakesOneRound) {
  SimRuntime sim;
  HistoryRecorder rec(3);
  auto sys = build_protocol("occ-reads", sim, rec, SystemConfig{3, 1, 1});
  invoke_write(sim, sys->writer(0), {{0, 5}, {2, 7}}, [](const TxnResult&) {});
  sim.run_until_idle();
  TxnResult result;
  invoke_read(sim, sys->reader(0), {0, 1, 2}, [&](const TxnResult& r) { result = r; });
  sim.run_until_idle();
  EXPECT_EQ(result.values[0].second, 5);
  EXPECT_EQ(result.values[1].second, kInitialValue);
  EXPECT_EQ(result.values[2].second, 7);
  const History h = rec.snapshot();
  // One optimistic round sufficed... except for the very first read after a
  // write: guesses start at kappa_0, so exactly one retry.  Re-read:
  TxnResult again;
  invoke_read(sim, sys->reader(0), {0, 2}, [&](const TxnResult& r) { again = r; });
  sim.run_until_idle();
  const History h2 = rec.snapshot();
  EXPECT_EQ(h2.txns.back().rounds, 2) << "first read re-validates once after the write";
  (void)h;
}

TEST(OccReads, StrictSerializabilityAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SimRuntime sim(make_uniform_delay(10, 6000, seed));
    HistoryRecorder rec(3);
    auto sys = build_protocol("occ-reads", sim, rec, SystemConfig{3, 2, 3});
    WorkloadSpec spec;
    spec.ops_per_reader = 40;
    spec.ops_per_writer = 25;
    spec.read_span = 2;
    spec.write_span = 2;
    spec.seed = seed;
    WorkloadDriver driver(sim, *sys, spec);
    driver.start();
    sim.run_until_idle();
    ASSERT_TRUE(driver.done());
    auto verdict = check_tag_order(rec.snapshot());
    EXPECT_TRUE(verdict.ok) << "seed " << seed << ": " << verdict.explanation;
  }
}

TEST(OccReads, OneVersionAndNonBlockingOnTrace) {
  SimRuntime sim(make_uniform_delay(10, 5000, 3));
  HistoryRecorder rec(3);
  auto sys = build_protocol("occ-reads", sim, rec, SystemConfig{3, 2, 2});
  WorkloadSpec spec;
  spec.ops_per_reader = 30;
  spec.ops_per_writer = 15;
  spec.read_span = 2;
  WorkloadDriver driver(sim, *sys, spec);
  driver.start();
  sim.run_until_idle();
  const History h = rec.snapshot();
  const auto report = analyze_snow_trace(sim.trace(), 3, h);
  EXPECT_TRUE(report.satisfies_n()) << (report.violations.empty() ? "" : report.violations[0]);
  EXPECT_EQ(report.max_versions_per_response, 1);  // always one version
}

TEST(OccReads, ContentionForcesRetries) {
  // An adversary commits one WRITE between every optimistic round of the
  // READ: each validation fails and the read keeps retrying — the concrete
  // face of the unbounded worst case that keeps (inf,1) an inf cell.
  SimRuntime sim;
  HistoryRecorder rec(2);
  auto sys = build_protocol("occ-reads", sim, rec, SystemConfig{2, 1, 1});
  sim.start();
  // Server 1's ack, relayed to s* (server 0), is what lists each WRITE.
  sim.hold_matching(script::any_of(
      {script::payload_is("write-val-ack"), script::payload_is("get-tag-arr")}));

  // Chain 4 writes; each blocks at its held relayed ack until released.
  int writes_done = 0;
  std::function<void()> next_write = [&] {
    invoke_write(sim, sys->writer(0), {{0, 10 + writes_done}, {1, 20 + writes_done}},
                 [&](const TxnResult&) {
                   ++writes_done;
                   if (writes_done < 4) next_write();
                 });
  };
  next_write();
  sim.run_until_idle();

  bool r_done = false;
  invoke_read(sim, sys->reader(0), {0, 1}, [&](const TxnResult&) { r_done = true; });
  sim.run_until_idle();  // round 1's get-tag-arr is held
  EXPECT_FALSE(r_done);

  // Interleave: commit a write, THEN let the pending validation through —
  // the tag array always names a key newer than the reader's guesses.
  for (int i = 0; i < 4; ++i) {
    ASSERT_FALSE(r_done);
    ASSERT_TRUE(script::release_one_and_drain(sim, script::payload_is("write-val-ack")));
    ASSERT_TRUE(script::release_one_and_drain(sim, script::payload_is("get-tag-arr")));
  }
  sim.hold_matching(nullptr);
  sim.release_all();
  sim.run_until_idle();
  ASSERT_TRUE(r_done);
  EXPECT_EQ(writes_done, 4);

  const History h = rec.snapshot();
  EXPECT_GE(max_read_rounds(h), 4) << "each committed write must force a retry";
  auto verdict = check_tag_order(h);
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

TEST(OccReads, BoundedFallbackCapsRounds) {
  SimRuntime sim(make_uniform_delay(10, 6000, 5));
  HistoryRecorder rec(2);
  BuildOptions opts;
  opts.set("max_optimistic_rounds", 2);
  auto sys = build_protocol("occ-reads", sim, rec, SystemConfig{2, 2, 4}, opts);
  WorkloadSpec spec;
  spec.ops_per_reader = 60;
  spec.ops_per_writer = 60;  // heavy write contention
  spec.read_span = 2;
  spec.write_span = 2;
  spec.seed = 5;
  WorkloadDriver driver(sim, *sys, spec);
  driver.start();
  sim.run_until_idle();
  const History h = rec.snapshot();
  EXPECT_LE(max_read_rounds(h), 3);  // 2 optimistic + 1 pessimistic
  auto verdict = check_tag_order(h);
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

TEST(OccReads, RoundsGrowUnderWriteContention) {
  // Statistical: with many writers, some reads need >1 round.
  SimRuntime sim(make_uniform_delay(10, 8000, 9));
  HistoryRecorder rec(2);
  auto sys = build_protocol("occ-reads", sim, rec, SystemConfig{2, 2, 4});
  WorkloadSpec spec;
  spec.ops_per_reader = 80;
  spec.ops_per_writer = 80;
  spec.read_span = 2;
  spec.write_span = 2;
  spec.seed = 9;
  WorkloadDriver driver(sim, *sys, spec);
  driver.start();
  sim.run_until_idle();
  EXPECT_GT(max_read_rounds(rec.snapshot()), 1);
  auto verdict = check_tag_order(rec.snapshot());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

}  // namespace
}  // namespace snowkit

// WorkloadDriver open-loop timers on the deterministic simulator.
//
// The open-loop arrival chain runs on Runtime::post_after; until now it was
// only exercised on ThreadRuntime (wall clock).  These tests pin its
// SimRuntime behaviour: virtual-time pacing, exact completion counts,
// sojourn recording under backlog, determinism per seed, interaction with
// chaos scheduling — and the post_after tie-break (equal deadlines fire in
// posting order), which the arrival chain depends on.
#include <gtest/gtest.h>

#include <stdexcept>

#include "checker/tag_order.hpp"
#include "core/run_workload.hpp"
#include "core/system.hpp"
#include "sim/chaos.hpp"
#include "sim/sim_runtime.hpp"

namespace snowkit {
namespace {

class NopNode final : public Node {
 public:
  void on_message(NodeId, const Message&) override {}
};

TEST(PostAfterOrdering, EqualDeadlinesFireInPostingOrder) {
  SimRuntime sim;
  sim.add_node(std::make_unique<NopNode>());
  std::vector<int> fired;
  sim.post_after(0, 1000, [&] { fired.push_back(1); });
  sim.post_after(0, 1000, [&] { fired.push_back(2); });
  sim.post_after(0, 1000, [&] { fired.push_back(3); });
  sim.run_until_idle();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}))
      << "ties on the virtual-time deadline must break by posting order";
  EXPECT_EQ(sim.now_ns(), 1000u);
}

TEST(PostAfterOrdering, ShorterDelayPostedLaterStillFiresFirst) {
  SimRuntime sim;
  sim.add_node(std::make_unique<NopNode>());
  std::vector<int> fired;
  sim.post_after(0, 2000, [&] { fired.push_back(1); });
  sim.post_after(0, 500, [&] { fired.push_back(2); });
  sim.post_after(0, 2000, [&] { fired.push_back(3); });  // ties with #1
  sim.run_until_idle();
  EXPECT_EQ(fired, (std::vector<int>{2, 1, 3}));
}

TEST(OpenLoopOnSim, PacesArrivalsInVirtualTimeAndCompletes) {
  SimRuntime sim;
  HistoryRecorder rec(4);
  auto sys = build_protocol("algo-b", sim, rec, SystemConfig{4, 2, 2});
  WorkloadSpec spec;
  spec.read_span = 2;
  spec.write_span = 2;
  spec.seed = 7;
  DriverOptions opts;
  opts.mode = ArrivalMode::kOpenLoop;
  opts.total_ops = 40;
  opts.arrival_interval_ns = 10'000;
  opts.read_fraction = 0.5;
  WorkloadDriver driver(sim, *sys, spec, opts);
  driver.start();
  sim.run_until_idle();
  ASSERT_TRUE(driver.done());
  EXPECT_EQ(driver.completed_reads() + driver.completed_writes(), 40u);
  // 40 arrivals at a 10us spacing: the last arrival fires at 400us of
  // virtual time, so the run cannot have quiesced before that.
  EXPECT_GE(sim.now_ns(), 40u * 10'000u);
  const auto verdict = check_tag_order(rec.snapshot());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

TEST(OpenLoopOnSim, RecordsSojournLatencyIncludingBacklog) {
  SimRuntime sim;
  HistoryRecorder rec(3);
  auto sys = build_protocol("algo-c", sim, rec, SystemConfig{3, 1, 1});
  WorkloadSpec spec;
  spec.read_span = 2;
  spec.seed = 11;
  DriverOptions opts;
  opts.mode = ArrivalMode::kOpenLoop;
  opts.total_ops = 30;
  // Arrivals far faster than the ~4 round-trip txn latency at the default
  // 1000ns hop: a real backlog builds inside TxnClient.
  opts.arrival_interval_ns = 100;
  opts.read_fraction = 0.5;
  WorkloadDriver driver(sim, *sys, spec, opts);
  driver.start();
  sim.run_until_idle();
  ASSERT_TRUE(driver.done());
  const LatencySummary sojourn = driver.sojourn_latency();
  EXPECT_EQ(sojourn.count, 30u);
  // Under backlog, client-perceived sojourn must exceed the bare protocol
  // invoke->respond latency for the worst transactions.
  const LatencySummary protocol = summarize_latency(rec.snapshot(), /*reads=*/true);
  EXPECT_GT(sojourn.p99_ns, protocol.p50_ns);
}

TEST(OpenLoopOnSim, DeterministicPerSeedAcrossRuns) {
  auto run = [](std::uint64_t seed) {
    SimRuntime sim;
    HistoryRecorder rec(3);
    auto sys = build_protocol("algo-b", sim, rec, SystemConfig{3, 2, 2});
    WorkloadSpec spec;
    spec.read_span = 2;
    spec.seed = seed;
    DriverOptions opts;
    opts.mode = ArrivalMode::kOpenLoop;
    opts.total_ops = 25;
    opts.arrival_interval_ns = 5'000;
    opts.read_fraction = 0.6;
    WorkloadDriver driver(sim, *sys, spec, opts);
    driver.start();
    sim.run_until_idle();
    EXPECT_TRUE(driver.done());
    return sim.trace().to_text();
  };
  EXPECT_EQ(run(3), run(3));
  EXPECT_NE(run(3), run(4));
}

TEST(OpenLoopOnSim, SurvivesChaosScheduling) {
  // Timers are tasks, not messages: chaos can starve message delivery but
  // must not break the arrival chain or liveness.
  SimRuntime sim;
  HistoryRecorder rec(3);
  auto sys = build_protocol("algo-b", sim, rec, SystemConfig{3, 2, 2});
  WorkloadSpec spec;
  spec.read_span = 2;
  spec.seed = 13;
  DriverOptions opts;
  opts.mode = ArrivalMode::kOpenLoop;
  opts.total_ops = 30;
  opts.arrival_interval_ns = 2'000;
  opts.read_fraction = 0.5;
  WorkloadDriver driver(sim, *sys, spec, opts);
  driver.start();
  ChaosOptions chaos;
  chaos.seed = 17;
  chaos.hold_probability = 0.6;
  run_chaos(sim, chaos);
  ASSERT_TRUE(driver.done());
  EXPECT_EQ(driver.completed_reads() + driver.completed_writes(), 30u);
  const auto verdict = check_tag_order(rec.snapshot());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

TEST(DriverOptionsValidation, RejectsOptionsItCannotHonour) {
  SimRuntime sim;
  HistoryRecorder rec(4);
  auto sys = build_protocol("algo-b", sim, rec, SystemConfig{4, 2, 2});
  WorkloadSpec spec;
  spec.read_span = 2;
  spec.write_span = 2;
  DriverOptions paced;
  paced.mode = ArrivalMode::kOpenLoop;
  paced.total_ops = 10;
  EXPECT_NO_THROW(WorkloadDriver(sim, *sys, spec, paced));

  // Only a TrafficModel can feed more than one pacing shard.
  DriverOptions sharded = paced;
  sharded.arrival_shards = 2;
  EXPECT_THROW(WorkloadDriver(sim, *sys, spec, sharded), std::invalid_argument);
  sharded.arrival_shards = 0;
  EXPECT_THROW(WorkloadDriver(sim, *sys, spec, sharded), std::invalid_argument);

  DriverOptions unpaced = paced;
  unpaced.arrival_interval_ns = 0;
  EXPECT_THROW(WorkloadDriver(sim, *sys, spec, unpaced), std::invalid_argument);

  DriverOptions closed_traffic;
  closed_traffic.mode = ArrivalMode::kMixedClosedLoop;
  closed_traffic.ops_per_client = 5;
  closed_traffic.traffic = TrafficModel{};
  EXPECT_THROW(WorkloadDriver(sim, *sys, spec, closed_traffic), std::invalid_argument);
}

}  // namespace
}  // namespace snowkit

// Chaos-schedule property sweeps: under unbounded random reordering the
// strictly serializable protocols must stay strictly serializable, keep
// their round/version signatures, and complete every transaction.  The
// protocols that are NOT strictly serializable get caught red-handed far
// more often than under mere delay randomization.
#include <gtest/gtest.h>

#include "checker/serializability.hpp"
#include "checker/snow_monitor.hpp"
#include "checker/tag_order.hpp"
#include "core/run_workload.hpp"
#include "core/system.hpp"
#include "sim/chaos.hpp"

namespace snowkit {
namespace {

struct ChaosCase {
  std::string kind;
  std::uint64_t seed;
};

class ChaosSweep : public testing::TestWithParam<ChaosCase> {};

TEST_P(ChaosSweep, StrictProtocolsSurviveUnboundedReordering) {
  const ChaosCase& c = GetParam();
  SimRuntime sim;
  HistoryRecorder rec(3);
  const std::size_t readers = c.kind == "algo-a" ? 1 : 2;
  BuildOptions opts;
  if (c.seed % 2 == 0) opts.set("gc_versions", true);  // alternate GC mode
  auto sys = build_protocol(c.kind, sim, rec, SystemConfig{3, readers, 2}, opts);

  WorkloadSpec spec;
  spec.ops_per_reader = 25;
  spec.ops_per_writer = 15;
  spec.read_span = 2;
  spec.write_span = 2;
  spec.seed = c.seed;
  WorkloadDriver driver(sim, *sys, spec);
  driver.start();

  ChaosOptions chaos;
  chaos.seed = c.seed * 2654435761u;
  chaos.hold_probability = 0.6;
  run_chaos(sim, chaos);
  ASSERT_TRUE(driver.done()) << "chaos must preserve liveness (W property)";

  const History h = rec.snapshot();
  const auto verdict = check_tag_order(h);
  EXPECT_TRUE(verdict.ok) << c.kind << " seed " << c.seed << ": "
                          << verdict.explanation;

  const auto report = analyze_snow_trace(sim.trace(), 3, h);
  EXPECT_TRUE(report.satisfies_n()) << (report.violations.empty() ? "" : report.violations[0]);
  if (c.kind == "algo-a") EXPECT_EQ(report.max_read_rounds, 1);
  if (c.kind == "algo-b") EXPECT_LE(report.max_read_rounds, 2);
  if (c.kind == "algo-c" && !opts.get_bool("gc_versions")) {
    EXPECT_EQ(report.max_read_rounds, 1);
  }
  if (c.kind != "algo-c") EXPECT_EQ(report.max_versions_per_response, 1);
}

std::vector<ChaosCase> make_chaos_cases() {
  std::vector<ChaosCase> cases;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (const char* kind :
         {"algo-a", "algo-b", "algo-c", "occ-reads"}) {
      cases.push_back({kind, seed});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(StrictProtocols, ChaosSweep, testing::ValuesIn(make_chaos_cases()),
                         [](const testing::TestParamInfo<ChaosCase>& info) {
                           std::string n = info.param.kind;
                           for (auto& ch : n) {
                             if (ch == '-') ch = '_';
                           }
                           return n + "_s" + std::to_string(info.param.seed);
                         });

TEST(ChaosSweep, NaiveFracturesFrequentlyUnderChaos) {
  int violations = 0;
  const int runs = 10;
  for (std::uint64_t seed = 1; seed <= runs; ++seed) {
    SimRuntime sim;
    HistoryRecorder rec(2);
    auto sys = build_protocol("naive", sim, rec, SystemConfig{2, 1, 2});
    WorkloadSpec spec;
    spec.ops_per_reader = 20;
    spec.ops_per_writer = 10;
    spec.read_span = 2;
    spec.write_span = 2;
    spec.seed = seed;
    WorkloadDriver driver(sim, *sys, spec);
    driver.start();
    ChaosOptions chaos;
    chaos.seed = seed;
    run_chaos(sim, chaos);
    if (!find_fractured_read(rec.snapshot()).empty()) ++violations;
  }
  EXPECT_GT(violations, runs / 2)
      << "chaos schedules should fracture the naive protocol most of the time";
}

TEST(ChaosSweep, BlockingStaysSerializableAndLive) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SimRuntime sim;
    HistoryRecorder rec(2);
    auto sys = build_protocol("blocking-2pl", sim, rec, SystemConfig{2, 2, 2});
    WorkloadSpec spec;
    spec.ops_per_reader = 10;
    spec.ops_per_writer = 8;
    spec.seed = seed;
    WorkloadDriver driver(sim, *sys, spec);
    driver.start();
    ChaosOptions chaos;
    chaos.seed = seed + 77;
    run_chaos(sim, chaos);
    ASSERT_TRUE(driver.done()) << "no deadlock under chaos";
    auto verdict = check_strict_serializability(rec.snapshot(), CheckOptions{2'000'000});
    EXPECT_TRUE(verdict.ok || verdict.exhausted) << verdict.explanation;
  }
}

// Degenerate adversary knobs must still terminate: hold_probability 0.0
// (nothing captured), 1.0 (everything captured), and release_probability
// 0.0 (releases happen only when the queue runs dry).  Each run must take a
// bounded number of scheduling decisions — at most a small multiple of the
// messages exchanged — and complete every transaction.
TEST(ChaosEdgeCases, DegenerateProbabilitiesTerminateWithBoundedDecisions) {
  struct Edge {
    double hold;
    double release;
  };
  for (const Edge edge : {Edge{0.0, 0.0}, Edge{1.0, 0.0}, Edge{0.0, 1.0}, Edge{1.0, 1.0}}) {
    SimRuntime sim;
    HistoryRecorder rec(2);
    auto sys = build_protocol("algo-b", sim, rec, SystemConfig{2, 1, 2});
    WorkloadSpec spec;
    spec.ops_per_reader = 10;
    spec.ops_per_writer = 8;
    spec.seed = 3;
    WorkloadDriver driver(sim, *sys, spec);
    driver.start();
    ChaosOptions chaos;
    chaos.seed = 9;
    chaos.hold_probability = edge.hold;
    chaos.release_probability = edge.release;
    const std::size_t decisions = run_chaos(sim, chaos);
    ASSERT_TRUE(driver.done()) << "hold=" << edge.hold << " release=" << edge.release
                               << " lost liveness";
    // Every decision either delivers a queued event or releases a held
    // message, and each message is held at most once, so decisions are
    // bounded by twice the recorded actions (sends + receives + tasks) plus
    // slack for the task events the trace does not count.
    EXPECT_LE(decisions, 4 * sim.trace().size() + 64)
        << "hold=" << edge.hold << " release=" << edge.release;
    const auto verdict = check_tag_order(rec.snapshot());
    EXPECT_TRUE(verdict.ok) << verdict.explanation;
  }
}

// The max_decisions liveness guard: even with an adversary that would hold
// everything forever, the runner abandons it at the cap and drains the
// simulation deterministically to completion.
TEST(ChaosEdgeCases, MaxDecisionsGuardForcesTermination) {
  SimRuntime sim;
  HistoryRecorder rec(2);
  auto sys = build_protocol("algo-b", sim, rec, SystemConfig{2, 1, 2});
  WorkloadSpec spec;
  spec.ops_per_reader = 10;
  spec.ops_per_writer = 8;
  spec.seed = 5;
  WorkloadDriver driver(sim, *sys, spec);
  driver.start();
  ChaosOptions chaos;
  chaos.seed = 2;
  chaos.hold_probability = 1.0;
  chaos.release_probability = 0.0;
  chaos.max_decisions = 7;  // absurdly small: the guard must take over
  run_chaos(sim, chaos);
  ASSERT_TRUE(driver.done()) << "guard-mode drain must preserve liveness";
  EXPECT_EQ(sim.held_count(), 0u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(ChaosSweep, ChaosIsDeterministicPerSeed) {
  auto run = [](std::uint64_t seed) {
    SimRuntime sim;
    HistoryRecorder rec(2);
    auto sys = build_protocol("algo-b", sim, rec, SystemConfig{2, 1, 1});
    WorkloadSpec spec;
    spec.ops_per_reader = 10;
    spec.ops_per_writer = 5;
    spec.seed = 1;
    WorkloadDriver driver(sim, *sys, spec);
    driver.start();
    ChaosOptions chaos;
    chaos.seed = seed;
    run_chaos(sim, chaos);
    return sim.trace().to_text();
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

}  // namespace
}  // namespace snowkit

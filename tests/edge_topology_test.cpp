// Degenerate-topology sweeps: one shard, one client, single-object
// transactions, write-sets touching every shard — the corners where mask and
// List indexing bugs live.
#include <gtest/gtest.h>

#include "checker/serializability.hpp"
#include "checker/tag_order.hpp"
#include "core/run_workload.hpp"
#include "core/system.hpp"
#include "sim/sim_runtime.hpp"

namespace snowkit {
namespace {

struct EdgeCase {
  std::string kind;
  std::size_t objects;
  std::size_t readers;
  std::size_t writers;
  std::size_t read_span;
  std::size_t write_span;
};

class EdgeTopology : public testing::TestWithParam<EdgeCase> {};

TEST_P(EdgeTopology, RunsToQuiescenceAndStaysCorrect) {
  const EdgeCase& c = GetParam();
  SimRuntime sim(make_uniform_delay(10, 3000, 99));
  HistoryRecorder rec(c.objects);
  auto sys = build_protocol(c.kind, sim, rec, SystemConfig{c.objects, c.readers, c.writers});
  WorkloadSpec spec;
  spec.ops_per_reader = 25;
  spec.ops_per_writer = 15;
  spec.read_span = c.read_span;
  spec.write_span = c.write_span;
  spec.seed = 123;
  WorkloadDriver driver(sim, *sys, spec);
  driver.start();
  sim.run_until_idle();
  ASSERT_TRUE(driver.done());
  const History h = rec.snapshot();
  EXPECT_EQ(h.completed_reads(), c.readers * 25);
  EXPECT_EQ(h.completed_writes(), c.writers * 15);
  if (provides_tags(c.kind)) {
    auto verdict = check_tag_order(h);
    EXPECT_TRUE(verdict.ok) << verdict.explanation;
  }
}

std::vector<EdgeCase> make_edge_cases() {
  std::vector<EdgeCase> cases;
  for (const char* kind : {"algo-b", "algo-c", "occ-reads",
                            "blocking-2pl", "eiger"}) {
    cases.push_back({kind, 1, 1, 1, 1, 1});  // single shard, single clients
    cases.push_back({kind, 2, 1, 1, 2, 2});  // full-span txns on two shards
    cases.push_back({kind, 5, 1, 4, 1, 5});  // single-object reads, all-shard writes
    cases.push_back({kind, 5, 4, 1, 5, 1});  // all-shard reads, single-object writes
  }
  // Algorithm A: MWSR variants of the same corners.
  cases.push_back({"algo-a", 1, 1, 1, 1, 1});
  cases.push_back({"algo-a", 2, 1, 1, 2, 2});
  cases.push_back({"algo-a", 5, 1, 4, 1, 5});
  cases.push_back({"algo-a", 5, 1, 3, 5, 1});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Corners, EdgeTopology, testing::ValuesIn(make_edge_cases()),
                         [](const testing::TestParamInfo<EdgeCase>& info) {
                           const EdgeCase& c = info.param;
                           std::string n = c.kind;
                           for (auto& ch : n) {
                             if (ch == '-') ch = '_';
                           }
                           return n + "_k" + std::to_string(c.objects) + "_r" +
                                  std::to_string(c.readers) + "w" + std::to_string(c.writers) +
                                  "_rs" + std::to_string(c.read_span) + "ws" +
                                  std::to_string(c.write_span);
                         });

TEST(EdgeTopology, SingleShardSystemTriviallySerializesEverything) {
  // With one server the SNOW theorem does not bite ("SNOW is trivially
  // possible with a single server" — §1): every protocol, including naive,
  // is strictly serializable on one shard.
  for (const char* kind : {"naive", "simple"}) {
    SimRuntime sim(make_uniform_delay(10, 3000, 7));
    HistoryRecorder rec(1);
    auto sys = build_protocol(kind, sim, rec, SystemConfig{1, 2, 2});
    WorkloadSpec spec;
    spec.ops_per_reader = 20;
    spec.ops_per_writer = 15;
    spec.read_span = 1;
    spec.write_span = 1;
    WorkloadDriver driver(sim, *sys, spec);
    driver.start();
    sim.run_until_idle();
    auto verdict = check_strict_serializability(rec.snapshot(), CheckOptions{2'000'000});
    EXPECT_TRUE(verdict.ok) << kind << ": " << verdict.explanation;
  }
}

}  // namespace
}  // namespace snowkit

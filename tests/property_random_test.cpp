// Property-based sweeps (TEST_P): for every strictly serializable protocol,
// every randomized schedule must yield a history the checkers accept, the
// trace monitor must confirm the protocol's N/O signature, and all WRITEs
// must complete (the W property).  Non-serializable protocols are swept for
// the weaker invariants they do promise.
#include <gtest/gtest.h>

#include "checker/serializability.hpp"
#include "checker/snow_monitor.hpp"
#include "checker/tag_order.hpp"
#include "core/run_workload.hpp"
#include "core/system.hpp"
#include "sim/sim_runtime.hpp"

namespace snowkit {
namespace {

struct SweepCase {
  std::string kind;
  std::size_t objects;
  std::size_t readers;
  std::size_t writers;
  std::uint64_t seed;
  int expected_max_rounds;     // -1 = no bound asserted
  int expected_max_versions;   // -1 = no bound asserted
  bool expect_nonblocking;
};

std::string case_name(const testing::TestParamInfo<SweepCase>& info) {
  const SweepCase& c = info.param;
  std::string n = c.kind;
  for (auto& ch : n) {
    if (ch == '-') ch = '_';
  }
  return n + "_k" + std::to_string(c.objects) + "_r" + std::to_string(c.readers) + "_w" +
         std::to_string(c.writers) + "_s" + std::to_string(c.seed);
}

class ProtocolSweep : public testing::TestWithParam<SweepCase> {};

TEST_P(ProtocolSweep, InvariantsHoldUnderRandomAsynchrony) {
  const SweepCase& c = GetParam();
  SimRuntime sim(make_uniform_delay(10, 5000, c.seed * 1299721));
  HistoryRecorder rec(c.objects);
  auto sys = build_protocol(c.kind, sim, rec, SystemConfig{c.objects, c.readers, c.writers});

  WorkloadSpec spec;
  spec.ops_per_reader = 40;
  spec.ops_per_writer = 20;
  spec.read_span = std::min<std::size_t>(3, c.objects);
  spec.write_span = std::min<std::size_t>(2, c.objects);
  spec.zipf_theta = (c.seed % 2 == 0) ? 0.0 : 0.9;
  spec.seed = c.seed;
  WorkloadDriver driver(sim, *sys, spec);
  driver.start();
  sim.run_until_idle();
  ASSERT_TRUE(driver.done()) << "stuck transactions (W or liveness broken)";

  const History h = rec.snapshot();
  // W property: every WRITE completed.
  EXPECT_EQ(h.completed_writes(), c.writers * spec.ops_per_writer);
  EXPECT_EQ(h.completed_reads(), c.readers * spec.ops_per_reader);

  // S property (strictly serializable protocols only).
  if (provides_tags(c.kind)) {
    const auto verdict = check_tag_order(h);
    EXPECT_TRUE(verdict.ok) << verdict.explanation;
  } else if (c.kind == "blocking-2pl") {
    const auto verdict = check_strict_serializability(h, CheckOptions{2'000'000});
    EXPECT_TRUE(verdict.ok || verdict.exhausted) << verdict.explanation;
  }

  // Every recorded execution must be well-formed (each recv matches an
  // earlier send with identical endpoints and payload).
  std::string why;
  EXPECT_TRUE(well_formed(sim.trace(), &why)) << why;

  // N / O signatures from the trace.
  const auto report = analyze_snow_trace(sim.trace(), c.objects, h);
  if (c.expect_nonblocking) {
    EXPECT_TRUE(report.satisfies_n()) << (report.violations.empty() ? "" : report.violations[0]);
  }
  if (c.expected_max_rounds > 0) EXPECT_LE(report.max_read_rounds, c.expected_max_rounds);
  if (c.expected_max_versions > 0) {
    EXPECT_LE(report.max_versions_per_response, c.expected_max_versions);
  }
}

std::vector<SweepCase> make_cases() {
  std::vector<SweepCase> cases;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    // Algorithm A: MWSR only; 1 round, 1 version, non-blocking.
    cases.push_back({"algo-a", 3, 1, 3, seed, 1, 1, true});
    cases.push_back({"algo-a", 6, 1, 2, seed, 1, 1, true});
    // Algorithm B: MWMR; 2 rounds, 1 version, non-blocking.
    cases.push_back({"algo-b", 3, 2, 2, seed, 2, 1, true});
    cases.push_back({"algo-b", 6, 3, 3, seed, 2, 1, true});
    // Algorithm C: MWMR; 1 round, many versions, non-blocking.
    cases.push_back({"algo-c", 3, 2, 2, seed, 1, -1, true});
    cases.push_back({"algo-c", 6, 3, 3, seed, 1, -1, true});
    // Eiger: <=2 rounds, non-blocking (but not S — not asserted here).
    cases.push_back({"eiger", 3, 2, 2, seed, 2, 1, true});
    // OCC reads: one version, non-blocking, rounds finite but unbounded.
    cases.push_back({"occ-reads", 3, 2, 2, seed, -1, 1, true});
    // Blocking 2PL: multi-round, blocking — only S and liveness asserted.
    cases.push_back({"blocking-2pl", 3, 2, 2, seed, -1, 1, false});
    // Simple: 1 round, non-blocking, no S claim.
    cases.push_back({"simple", 4, 2, 2, seed, 1, 1, true});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, ProtocolSweep, testing::ValuesIn(make_cases()),
                         case_name);

// --- GC sweep for Algorithm C: bounded versions must never cost S ---------

class AlgoCGcSweep : public testing::TestWithParam<std::uint64_t> {};

TEST_P(AlgoCGcSweep, GcKeepsStrictSerializability) {
  const std::uint64_t seed = GetParam();
  SimRuntime sim(make_uniform_delay(10, 8000, seed));
  HistoryRecorder rec(4);
  BuildOptions opts;
  opts.set("gc_versions", true);
  auto sys = build_protocol("algo-c", sim, rec, SystemConfig{4, 2, 4}, opts);
  WorkloadSpec spec;
  spec.ops_per_reader = 50;
  spec.ops_per_writer = 30;
  spec.read_span = 3;
  spec.write_span = 2;
  spec.seed = seed;
  WorkloadDriver driver(sim, *sys, spec);
  driver.start();
  sim.run_until_idle();
  const auto verdict = check_tag_order(rec.snapshot());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlgoCGcSweep, testing::Range<std::uint64_t>(1, 13));

// --- coordinator-placement sweep for B and C --------------------------------

struct CoorCase {
  std::string kind;
  ObjectId coordinator;
  std::uint64_t seed;
};

// Without a printer gtest dumps the raw bytes of the case, which start with
// the std::string's data pointer, so the discovered test name would change
// with every address-space layout.
void PrintTo(const CoorCase& c, std::ostream* os) {
  *os << c.kind << " coor=" << c.coordinator << " seed=" << c.seed;
}

class CoordinatorSweep : public testing::TestWithParam<CoorCase> {};

TEST_P(CoordinatorSweep, AnyCoordinatorPreservesS) {
  const CoorCase& c = GetParam();
  SimRuntime sim(make_uniform_delay(10, 5000, c.seed));
  HistoryRecorder rec(4);
  BuildOptions opts;
  opts.set("coordinator", c.coordinator);
  auto sys = build_protocol(c.kind, sim, rec, SystemConfig{4, 2, 2}, opts);
  WorkloadSpec spec;
  spec.ops_per_reader = 30;
  spec.ops_per_writer = 15;
  spec.read_span = 2;
  spec.seed = c.seed;
  WorkloadDriver driver(sim, *sys, spec);
  driver.start();
  sim.run_until_idle();
  const auto verdict = check_tag_order(rec.snapshot());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

INSTANTIATE_TEST_SUITE_P(
    Placements, CoordinatorSweep,
    testing::Values(CoorCase{"algo-b", 0, 1}, CoorCase{"algo-b", 3, 2},
                    CoorCase{"algo-c", 0, 3}, CoorCase{"algo-c", 3, 4},
                    CoorCase{"algo-b", 1, 5}, CoorCase{"algo-c", 2, 6}),
    [](const testing::TestParamInfo<CoorCase>& info) {
      return std::string(info.param.kind == "algo-b" ? "B" : "C") + "_coor" +
             std::to_string(info.param.coordinator) + "_s" + std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace snowkit

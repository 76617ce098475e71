// Checker cross-validation: the Lemma-20 tag verifier and the search-based
// checker are independent implementations of the same definition; on every
// history where both apply they must agree.  Also validates the fast
// violation detectors against the exact search (a detector hit must imply a
// search rejection — soundness).
#include <gtest/gtest.h>

#include "checker/serializability.hpp"
#include "checker/tag_order.hpp"
#include "core/run_workload.hpp"
#include "core/system.hpp"
#include "sim/sim_runtime.hpp"

namespace snowkit {
namespace {

struct XCase {
  std::string kind;
  std::uint64_t seed;
};

class CheckerCrossValidation : public testing::TestWithParam<XCase> {};

TEST_P(CheckerCrossValidation, TagOrderAndSearchAgree) {
  const XCase& c = GetParam();
  SimRuntime sim(make_uniform_delay(10, 6000, c.seed));
  HistoryRecorder rec(3);
  const std::size_t readers = c.kind == "algo-a" ? 1 : 2;  // A is MWSR
  auto sys = build_protocol(c.kind, sim, rec, SystemConfig{3, readers, 2});
  WorkloadSpec spec;
  spec.ops_per_reader = 10;  // small so the exact search stays fast
  spec.ops_per_writer = 5;
  spec.read_span = 2;
  spec.write_span = 2;
  spec.seed = c.seed;
  WorkloadDriver driver(sim, *sys, spec);
  driver.start();
  sim.run_until_idle();
  const History h = rec.snapshot();

  const auto tag_verdict = check_tag_order(h);
  const auto search_verdict = check_strict_serializability(h, CheckOptions{2'000'000});
  ASSERT_FALSE(search_verdict.exhausted);
  EXPECT_TRUE(tag_verdict.ok) << tag_verdict.explanation;
  EXPECT_TRUE(search_verdict.ok) << search_verdict.explanation;
}

std::vector<XCase> make_xcases() {
  std::vector<XCase> cases;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (const char* kind : {"algo-b", "algo-c"}) {
      cases.push_back({kind, seed});
    }
  }
  // Algorithm A in MWSR.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) cases.push_back({"algo-a", seed});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Protocols, CheckerCrossValidation, testing::ValuesIn(make_xcases()),
                         [](const testing::TestParamInfo<XCase>& info) {
                           std::string n = info.param.kind;
                           for (auto& ch : n) {
                             if (ch == '-') ch = '_';
                           }
                           return n + "_s" + std::to_string(info.param.seed);
                         });

// --- detector soundness on random mutated histories -------------------------

TEST(DetectorSoundness, FractureAndStaleImplySearchRejection) {
  // Generate serializable histories, then mutate one read value; whenever a
  // fast detector fires, the exact search must also reject.
  int detector_hits = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SimRuntime sim(make_uniform_delay(10, 4000, seed));
    HistoryRecorder rec(2);
    auto sys = build_protocol("algo-b", sim, rec, SystemConfig{2, 1, 2});
    WorkloadSpec spec;
    spec.ops_per_reader = 8;
    spec.ops_per_writer = 5;
    spec.read_span = 2;
    spec.write_span = 2;
    spec.seed = seed;
    WorkloadDriver driver(sim, *sys, spec);
    driver.start();
    sim.run_until_idle();
    History h = rec.snapshot();

    // Mutate: make some read return the initial value on its first object.
    Xoshiro256 rng(seed);
    std::vector<std::size_t> reads;
    for (std::size_t i = 0; i < h.txns.size(); ++i) {
      if (h.txns[i].is_read && h.txns[i].complete && h.txns[i].reads[0].second != kInitialValue) {
        reads.push_back(i);
      }
    }
    if (reads.empty()) continue;
    h.txns[reads[rng.below(reads.size())]].reads[0].second = kInitialValue;

    const bool detector = !find_fractured_read(h).empty() || !find_stale_reread(h).empty();
    if (!detector) continue;
    ++detector_hits;
    const auto verdict = check_strict_serializability(h, CheckOptions{2'000'000});
    EXPECT_FALSE(verdict.ok) << "detector fired but exact search accepted (seed " << seed << ")";
    EXPECT_FALSE(verdict.exhausted);
  }
  EXPECT_GT(detector_hits, 0) << "mutations never triggered a detector — test is vacuous";
}

TEST(DetectorSoundness, CleanHistoriesTriggerNoDetector) {
  for (std::uint64_t seed = 20; seed <= 26; ++seed) {
    SimRuntime sim(make_uniform_delay(10, 4000, seed));
    HistoryRecorder rec(3);
    auto sys = build_protocol("algo-c", sim, rec, SystemConfig{3, 2, 2});
    WorkloadSpec spec;
    spec.ops_per_reader = 15;
    spec.ops_per_writer = 8;
    spec.read_span = 2;
    spec.seed = seed;
    WorkloadDriver driver(sim, *sys, spec);
    driver.start();
    sim.run_until_idle();
    const History h = rec.snapshot();
    EXPECT_TRUE(find_fractured_read(h).empty());
    EXPECT_TRUE(find_stale_reread(h).empty());
    EXPECT_TRUE(find_unwritten_value(h).empty());
  }
}

}  // namespace
}  // namespace snowkit

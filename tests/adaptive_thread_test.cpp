// Adaptive meta-protocol on the ThreadRuntime: the same Node state machines
// that the sim-based suites exercise, now with real concurrent executors.
// Protocol state is only ever touched from its owner's executor, so TSan
// (CI's sanitize-tsan leg runs this test) audits that the adaptive layer's
// mode table, client caches and EWMA tracker kept that contract — a data
// race here means a reader or the coordinator leaked state across threads.
#include <gtest/gtest.h>

#include "checker/tag_order.hpp"
#include "core/run_workload.hpp"
#include "core/system.hpp"
#include "proto/adaptive/adaptive.hpp"
#include "runtime/thread_runtime.hpp"

namespace snowkit {
namespace {

TEST(AdaptiveThread, ConcurrentWorkloadIsStrictlySerializable) {
  ThreadRuntime rt;
  HistoryRecorder rec(4);
  auto sys = build_protocol("adaptive", rt, rec, SystemConfig{4, 3, 3});
  rt.start();
  WorkloadSpec spec;
  spec.ops_per_reader = 100;
  spec.ops_per_writer = 50;
  spec.read_span = 2;
  spec.write_span = 2;
  WorkloadDriver driver(rt, *sys, spec);
  driver.start();
  driver.wait();
  rt.stop();
  const auto verdict = check_tag_order(rec.snapshot());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
  // The cache and prefetch paths must actually have run under threads, and
  // the reader-side counters must still reconcile exactly.
  const auto* adaptive = dynamic_cast<const AdaptiveSystem*>(sys.get());
  ASSERT_NE(adaptive, nullptr);
  const AdaptiveStats s = adaptive->stats();
  EXPECT_EQ(s.reads, 3u * 100u);
  EXPECT_GT(s.cache_hits + s.cache_misses, 0u);
  EXPECT_EQ(s.cache_misses, s.prefetch_resolved + s.round2_objects);
}

TEST(AdaptiveThread, WriteHeavyRunFlipsModesUnderThreads) {
  // Real wall-clock writes land well inside the 2 s EWMA window, so a
  // write-heavy burst must trip B->C switches on the live coordinator.
  ThreadRuntime rt;
  HistoryRecorder rec(2);
  auto sys = build_protocol("adaptive", rt, rec, SystemConfig{2, 1, 2});
  rt.start();
  WorkloadSpec spec;
  spec.ops_per_reader = 30;
  spec.ops_per_writer = 100;
  spec.read_span = 2;
  spec.write_span = 1;
  WorkloadDriver driver(rt, *sys, spec);
  driver.start();
  driver.wait();
  rt.stop();
  const auto verdict = check_tag_order(rec.snapshot());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
  const auto* adaptive = dynamic_cast<const AdaptiveSystem*>(sys.get());
  ASSERT_NE(adaptive, nullptr);
  EXPECT_GE(adaptive->stats().switches, 1u)
      << "a 100-writes-per-writer burst never flipped any object to C-mode";
}

}  // namespace
}  // namespace snowkit

// ThreadRuntime: real-thread message passing with the same protocol code.
#include <gtest/gtest.h>

#include "checker/tag_order.hpp"
#include "core/run_workload.hpp"
#include "core/system.hpp"
#include "runtime/thread_runtime.hpp"

namespace snowkit {
namespace {

TEST(ThreadRuntime, AlgoBWorkloadIsStrictlySerializable) {
  ThreadRuntime rt;
  HistoryRecorder rec(3);
  auto sys = build_protocol("algo-b", rt, rec, SystemConfig{3, 2, 2});
  rt.start();
  WorkloadSpec spec;
  spec.ops_per_reader = 100;
  spec.ops_per_writer = 50;
  spec.read_span = 2;
  WorkloadDriver driver(rt, *sys, spec);
  driver.start();
  driver.wait();
  rt.stop();
  auto verdict = check_tag_order(rec.snapshot());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

TEST(ThreadRuntime, AlgoCWorkloadIsStrictlySerializable) {
  ThreadRuntime rt;
  HistoryRecorder rec(3);
  auto sys = build_protocol("algo-c", rt, rec, SystemConfig{3, 2, 2});
  rt.start();
  WorkloadSpec spec;
  spec.ops_per_reader = 100;
  spec.ops_per_writer = 50;
  spec.read_span = 3;
  WorkloadDriver driver(rt, *sys, spec);
  driver.start();
  driver.wait();
  rt.stop();
  auto verdict = check_tag_order(rec.snapshot());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

TEST(ThreadRuntime, AlgoAMwsrUnderThreads) {
  ThreadRuntime rt;
  HistoryRecorder rec(4);
  auto sys = build_protocol("algo-a", rt, rec, SystemConfig{4, 1, 3});
  rt.start();
  WorkloadSpec spec;
  spec.ops_per_reader = 150;
  spec.ops_per_writer = 40;
  spec.read_span = 2;
  WorkloadDriver driver(rt, *sys, spec);
  driver.start();
  driver.wait();
  rt.stop();
  auto verdict = check_tag_order(rec.snapshot());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

TEST(ThreadRuntime, BlockingProtocolDrainsWithoutDeadlock) {
  ThreadRuntime rt;
  HistoryRecorder rec(2);
  auto sys = build_protocol("blocking-2pl", rt, rec, SystemConfig{2, 2, 2});
  rt.start();
  WorkloadSpec spec;
  spec.ops_per_reader = 50;
  spec.ops_per_writer = 30;
  WorkloadDriver driver(rt, *sys, spec);
  driver.start();
  driver.wait();
  rt.stop();
  EXPECT_EQ(rec.snapshot().completed_reads(), 100u);
}

TEST(ThreadRuntime, StopIsIdempotentAndDrains) {
  ThreadRuntime rt;
  HistoryRecorder rec(2);
  auto sys = build_protocol("simple", rt, rec, SystemConfig{2, 1, 1});
  rt.start();
  WorkloadDriver driver(rt, *sys, WorkloadSpec{.ops_per_reader = 5, .ops_per_writer = 5});
  driver.start();
  driver.wait();
  rt.stop();
  rt.stop();  // no-op
  SUCCEED();
}

TEST(ThreadRuntime, StopDrainsAReadInFlight) {
  // The READ completes while stop() drains and arms its read-done linger;
  // that timer is discarded with the rest.
  for (int i = 0; i < 20; ++i) {
    ThreadRuntime rt;
    HistoryRecorder rec(4);
    auto sys = build_protocol("algo-c", rt, rec, SystemConfig{4, 1, 1});
    rt.start();
    int done = 0;
    invoke_read(rt, sys->reader(0), {0, 1, 2, 3}, [&](const TxnResult&) { ++done; });
    rt.stop();
    EXPECT_EQ(done, 1);
  }
}

}  // namespace
}  // namespace snowkit

// Blocking 2PL comparator: strictly serializable but blocking & multi-round.
#include <gtest/gtest.h>

#include "checker/serializability.hpp"
#include "checker/snow_monitor.hpp"
#include "core/run_workload.hpp"
#include "core/system.hpp"
#include "proto/blocking/blocking.hpp"
#include "sim/script.hpp"
#include "sim/sim_runtime.hpp"

namespace snowkit {
namespace {

TEST(Blocking, WriteThenRead) {
  SimRuntime sim;
  HistoryRecorder rec(3);
  auto sys = build_blocking(sim, rec, SystemConfig{3, 1, 1});
  invoke_write(sim, sys->writer(0), {{0, 1}, {2, 3}}, [](const TxnResult&) {});
  sim.run_until_idle();
  TxnResult result;
  invoke_read(sim, sys->reader(0), {0, 1, 2}, [&](const TxnResult& r) { result = r; });
  sim.run_until_idle();
  EXPECT_EQ(result.values[0].second, 1);
  EXPECT_EQ(result.values[1].second, kInitialValue);
  EXPECT_EQ(result.values[2].second, 3);
}

TEST(Blocking, StrictlySerializableUnderContention) {
  for (std::uint64_t seed : {41ull, 42ull, 43ull}) {
    SimRuntime sim(make_uniform_delay(10, 4000, seed));
    HistoryRecorder rec(3);
    auto sys = build_blocking(sim, rec, SystemConfig{3, 2, 2});
    WorkloadSpec spec;
    spec.ops_per_reader = 15;
    spec.ops_per_writer = 10;
    spec.read_span = 2;
    spec.write_span = 2;
    spec.seed = seed;
    WorkloadDriver driver(sim, *sys, spec);
    driver.start();
    sim.run_until_idle();
    ASSERT_TRUE(driver.done()) << "deadlock at seed " << seed;
    auto verdict = check_strict_serializability(rec.snapshot(), CheckOptions{1'000'000});
    EXPECT_TRUE(verdict.ok) << "seed " << seed << ": " << verdict.explanation;
  }
}

TEST(Blocking, ReaderBlocksBehindWriterLock) {
  // Hold the writer's write-unlock: the write lock stays held, so a READ's
  // lock request must wait — the N property fails, observably in the trace.
  SimRuntime sim;
  HistoryRecorder rec(2);
  auto sys = build_blocking(sim, rec, SystemConfig{2, 1, 1});
  sim.start();
  sim.hold_matching(script::payload_is("write-unlock"));
  bool w_done = false;
  invoke_write(sim, sys->writer(0), {{0, 9}, {1, 9}}, [&](const TxnResult&) { w_done = true; });
  sim.run_until_idle();
  EXPECT_FALSE(w_done);  // locks held, writes not applied

  bool r_done = false;
  TxnResult result;
  invoke_read(sim, sys->reader(0), {0, 1}, [&](const TxnResult& r) {
    result = r;
    r_done = true;
  });
  sim.run_until_idle();
  EXPECT_FALSE(r_done);  // blocked behind the exclusive lock

  sim.hold_matching(nullptr);
  sim.release_all();
  sim.run_until_idle();
  ASSERT_TRUE(w_done);
  ASSERT_TRUE(r_done);
  EXPECT_EQ(result.values[0].second, 9);  // FIFO: read serialized after the write

  const History h = rec.snapshot();
  const auto report = analyze_snow_trace(sim.trace(), 2, h);
  EXPECT_FALSE(report.satisfies_n());  // blocking observed mechanically
  auto verdict = check_strict_serializability(h);
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

TEST(Blocking, RoundsGrowWithReadSpan) {
  SimRuntime sim;
  HistoryRecorder rec(4);
  auto sys = build_blocking(sim, rec, SystemConfig{4, 1, 0});
  TxnResult result;
  invoke_read(sim, sys->reader(0), {0, 1, 2, 3}, [&](const TxnResult& r) { result = r; });
  sim.run_until_idle();
  const History h = rec.snapshot();
  EXPECT_EQ(max_read_rounds(h), 4);  // sequential lock acquisition
}

TEST(Blocking, NoDeadlockWithOpposingAccessOrders) {
  // Reader wants {0,1}, writer wants {1,0}: ordered acquisition sorts both,
  // so the classic deadlock cannot form.  Run many interleavings.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SimRuntime sim(make_uniform_delay(10, 2000, seed));
    HistoryRecorder rec(2);
    auto sys = build_blocking(sim, rec, SystemConfig{2, 1, 1});
    bool r_done = false;
    bool w_done = false;
    invoke_read(sim, sys->reader(0), {0, 1}, [&](const TxnResult&) { r_done = true; });
    invoke_write(sim, sys->writer(0), {{1, 5}, {0, 6}}, [&](const TxnResult&) { w_done = true; });
    sim.run_until_idle();
    EXPECT_TRUE(r_done && w_done) << "seed " << seed;
  }
}

}  // namespace
}  // namespace snowkit

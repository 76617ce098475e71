// WireStats observer + WorkloadDriver + latency summarization.
#include <gtest/gtest.h>

#include "core/run_workload.hpp"
#include "core/system.hpp"
#include "metrics/wire_stats.hpp"
#include "msg/codec.hpp"
#include "runtime/thread_runtime.hpp"
#include "sim/sim_runtime.hpp"

namespace snowkit {
namespace {

TEST(WireStats, CountsMessagesAndBytesOnSim) {
  SimRuntime sim;
  WireStats wire;
  sim.set_observer(&wire);
  HistoryRecorder rec(2);
  auto sys = build_protocol("simple", sim, rec, SystemConfig{2, 1, 1});
  invoke_write(sim, sys->writer(0), {{0, 1}, {1, 2}}, [](const TxnResult&) {});
  sim.run_until_idle();
  EXPECT_EQ(wire.messages(), 4u);  // 2 writes + 2 acks
  EXPECT_GT(wire.bytes(), 0u);
  const auto per_type = wire.per_type();
  EXPECT_EQ(per_type.at("simple-write"), 2u);
  EXPECT_EQ(per_type.at("simple-write-ack"), 2u);
}

TEST(WireStats, BytesMatchCodecSizes) {
  const Message m{1, SimpleWriteReq{0, 5}};
  WireStats wire;
  wire.on_send(0, 1, m, encoded_size(m));
  EXPECT_EQ(wire.bytes(), encode_message(m).size());
}

TEST(WireStats, ResetClears) {
  WireStats wire;
  wire.on_send(0, 1, Message{1, SimpleReadReq{0}}, 10);
  wire.reset();
  EXPECT_EQ(wire.messages(), 0u);
  EXPECT_EQ(wire.bytes(), 0u);
}

TEST(Driver, CompletesExactOpCounts) {
  SimRuntime sim;
  HistoryRecorder rec(3);
  auto sys = build_protocol("algo-b", sim, rec, SystemConfig{3, 2, 2});
  WorkloadSpec spec;
  spec.ops_per_reader = 7;
  spec.ops_per_writer = 5;
  WorkloadDriver driver(sim, *sys, spec);
  EXPECT_EQ(driver.total_ops(), 2u * 7 + 2u * 5);
  driver.start();
  sim.run_until_idle();
  EXPECT_TRUE(driver.done());
  const History h = rec.snapshot();
  EXPECT_EQ(h.completed_reads(), 14u);
  EXPECT_EQ(h.completed_writes(), 10u);
}

TEST(Driver, UniqueWriteValuesAcrossWriters) {
  SimRuntime sim;
  HistoryRecorder rec(2);
  auto sys = build_protocol("algo-b", sim, rec, SystemConfig{2, 1, 3});
  WorkloadSpec spec;
  spec.ops_per_reader = 1;
  spec.ops_per_writer = 20;
  spec.write_span = 2;
  WorkloadDriver driver(sim, *sys, spec);
  driver.start();
  sim.run_until_idle();
  std::set<Value> values;
  std::size_t total = 0;
  for (const auto& t : rec.snapshot().txns) {
    for (const auto& [obj, v] : t.writes) {
      (void)obj;
      values.insert(v);
      ++total;
    }
  }
  EXPECT_EQ(values.size(), total) << "write values must be globally unique for the checkers";
}

TEST(Driver, ZeroOpsIsANoop) {
  SimRuntime sim;
  HistoryRecorder rec(2);
  auto sys = build_protocol("simple", sim, rec, SystemConfig{2, 1, 1});
  WorkloadSpec spec;
  spec.ops_per_reader = 0;
  spec.ops_per_writer = 0;
  WorkloadDriver driver(sim, *sys, spec);
  driver.start();
  sim.run_until_idle();
  EXPECT_TRUE(driver.done());
  EXPECT_EQ(rec.snapshot().txns.size(), 0u);
}

TEST(Driver, WaitBlocksUntilDoneOnThreads) {
  ThreadRuntime rt;
  HistoryRecorder rec(2);
  auto sys = build_protocol("simple", rt, rec, SystemConfig{2, 2, 1});
  rt.start();
  WorkloadSpec spec;
  spec.ops_per_reader = 50;
  spec.ops_per_writer = 20;
  WorkloadDriver driver(rt, *sys, spec);
  driver.start();
  driver.wait();
  EXPECT_TRUE(driver.done());
  rt.stop();
  EXPECT_EQ(rec.snapshot().completed_reads(), 100u);
}

TEST(LatencySummary, ComputedFromHistory) {
  HistoryRecorder rec(1);
  SimRuntime sim;
  rec.attach_runtime(&sim);
  // Two reads with known (virtual) durations of zero — just check counting.
  const TxnId a = rec.begin_read(1, {0});
  rec.finish_read(a, {{0, 0}}, kInvalidTag, 1, 1);
  const TxnId b = rec.begin_write(2, {{0, 1}});
  rec.finish_write(b, kInvalidTag, 1);
  const auto reads = summarize_latency(rec.snapshot(), true);
  const auto writes = summarize_latency(rec.snapshot(), false);
  EXPECT_EQ(reads.count, 1u);
  EXPECT_EQ(writes.count, 1u);
}

}  // namespace
}  // namespace snowkit

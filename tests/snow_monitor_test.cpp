// The SNOW trace monitor: N/O verdicts computed from synthetic traces.
#include <gtest/gtest.h>

#include "checker/snow_monitor.hpp"
#include "proto/algo_c/algo_c.hpp"
#include "sim/sim_runtime.hpp"

namespace snowkit {
namespace {

struct TraceBuilder {
  Trace t;
  std::uint64_t seq = 1;

  TraceBuilder& inv(NodeId client, TxnId txn) {
    t.append(Action{ActionKind::Invoke, 0, client, kInvalidNode, txn, "", 0, 0});
    return *this;
  }
  TraceBuilder& resp(NodeId client, TxnId txn) {
    t.append(Action{ActionKind::Respond, 0, client, kInvalidNode, txn, "", 0, 0});
    return *this;
  }
  std::uint64_t send(NodeId from, NodeId to, TxnId txn, const char* msg, int versions = 0) {
    t.append(Action{ActionKind::Send, 0, from, to, txn, msg, seq, versions});
    return seq++;
  }
  TraceBuilder& recv(NodeId at, NodeId from, TxnId txn, const char* msg, std::uint64_t s,
                     int versions = 0) {
    t.append(Action{ActionKind::Recv, 0, at, from, txn, msg, s, versions});
    return *this;
  }
};

History one_read_history(NodeId client, TxnId txn) {
  History h;
  h.num_objects = 2;
  TxnRecord r;
  r.id = txn;
  r.client = client;
  r.is_read = true;
  r.complete = true;
  h.txns.push_back(r);
  return h;
}

TEST(SnowMonitor, OneRoundNonBlockingRead) {
  TraceBuilder b;
  b.inv(2, 1);
  const auto s1 = b.send(2, 0, 1, "read-val-batch");
  const auto s2 = b.send(2, 1, 1, "read-val-batch");
  b.recv(0, 2, 1, "read-val-batch", s1);
  const auto r1 = b.send(0, 2, 1, "read-val-batch-resp", 1);
  b.recv(1, 2, 1, "read-val-batch", s2);
  const auto r2 = b.send(1, 2, 1, "read-val-batch-resp", 1);
  b.recv(2, 0, 1, "read-val-batch-resp", r1, 1).recv(2, 1, 1, "read-val-batch-resp", r2, 1);
  b.resp(2, 1);
  const auto report = analyze_snow_trace(b.t, 2, one_read_history(2, 1));
  EXPECT_TRUE(report.satisfies_n());
  EXPECT_TRUE(report.satisfies_o());
  EXPECT_EQ(report.max_read_rounds, 1);
  EXPECT_EQ(report.max_versions_per_response, 1);
}

TEST(SnowMonitor, BlockedServerDetected) {
  TraceBuilder b;
  b.inv(2, 1);
  const auto s1 = b.send(2, 0, 1, "lock-req");
  b.recv(0, 2, 1, "lock-req", s1);
  // Server receives ANOTHER input before responding: blocking.
  const auto w = b.send(3, 0, 9, "write-unlock");
  b.recv(0, 3, 9, "write-unlock", w);
  const auto g = b.send(0, 2, 1, "lock-grant", 1);
  b.recv(2, 0, 1, "lock-grant", g, 1);
  b.resp(2, 1);
  const auto report = analyze_snow_trace(b.t, 2, one_read_history(2, 1));
  EXPECT_FALSE(report.satisfies_n());
  ASSERT_FALSE(report.violations.empty());
}

TEST(SnowMonitor, NeverRespondedIsBlocking) {
  TraceBuilder b;
  b.inv(2, 1);
  const auto s1 = b.send(2, 0, 1, "read-val-batch");
  b.recv(0, 2, 1, "read-val-batch", s1);
  const auto report = analyze_snow_trace(b.t, 2, one_read_history(2, 1));
  EXPECT_FALSE(report.satisfies_n());
}

TEST(SnowMonitor, TwoRoundsCounted) {
  TraceBuilder b;
  b.inv(2, 1);
  const auto s1 = b.send(2, 0, 1, "get-tag-arr");
  b.recv(0, 2, 1, "get-tag-arr", s1);
  const auto r1 = b.send(0, 2, 1, "tag-arr", 1);
  b.recv(2, 0, 1, "tag-arr", r1, 1);
  const auto s2 = b.send(2, 1, 1, "read-val-batch");
  b.recv(1, 2, 1, "read-val-batch", s2);
  const auto r2 = b.send(1, 2, 1, "read-val-batch-resp", 1);
  b.recv(2, 1, 1, "read-val-batch-resp", r2, 1);
  b.resp(2, 1);
  const auto report = analyze_snow_trace(b.t, 2, one_read_history(2, 1));
  EXPECT_EQ(report.max_read_rounds, 2);
  EXPECT_TRUE(report.satisfies_n());
  EXPECT_FALSE(report.satisfies_o());  // two rounds break O
}

TEST(SnowMonitor, MultiVersionResponseCounted) {
  TraceBuilder b;
  b.inv(2, 1);
  const auto s1 = b.send(2, 0, 1, "read-vals-batch");
  b.recv(0, 2, 1, "read-vals-batch", s1);
  const auto r1 = b.send(0, 2, 1, "read-vals-batch-resp", 4);
  b.recv(2, 0, 1, "read-vals-batch-resp", r1, 4);
  b.resp(2, 1);
  const auto report = analyze_snow_trace(b.t, 2, one_read_history(2, 1));
  EXPECT_EQ(report.max_versions_per_response, 4);
  EXPECT_EQ(report.max_read_rounds, 1);
  EXPECT_FALSE(report.satisfies_o());  // multi-version breaks one-version
  EXPECT_TRUE(report.one_round());
}

TEST(SnowMonitor, AFoldedTagArrayIsOneResponseOfTheRound) {
  // algo-c over 2 shards (objects {0, 1} on s*'s): the READ's tag array
  // rides shard 0's read-vals-batch-resp, which counts as one response of
  // the READ's one round, its versions the longest list it carries (object
  // 0's three, not the four of both objects).
  SimRuntime sim(make_fixed_delay(1000));
  HistoryRecorder rec(4);
  AlgoCOptions opts;
  opts.gc_versions = false;
  SystemConfig cfg{4, 1, 1};
  cfg.num_servers = 2;
  cfg.placement = PlacementKind::kRange;
  auto sys = build_algo_c(sim, rec, cfg, opts);
  for (Value v : {1, 2}) {
    invoke_write(sim, sys->writer(0), {{0, v}}, [](const TxnResult&) {});
    sim.run_until_idle();
  }
  invoke_read(sim, sys->reader(0), {0, 1, 2}, [](const TxnResult&) {});
  sim.run_until_idle();
  const History h = rec.snapshot();
  const NodeId reader = sys->reader(0).node_id();
  int responses = 0;
  for (const Action& a : sim.trace().actions()) {
    if (a.kind == ActionKind::Recv && a.node == reader) {
      ++responses;
      EXPECT_EQ(a.msg, "read-vals-batch-resp");
      EXPECT_EQ(a.versions, a.peer == 0 ? 3 : 1);
    }
  }
  EXPECT_EQ(responses, 2);  // one per server, the coordinator's included
  const auto report = analyze_snow_trace(sim.trace(), 2, h);
  EXPECT_TRUE(report.satisfies_n());
  EXPECT_EQ(report.max_read_rounds, 1);
  EXPECT_EQ(report.max_versions_per_response, 3);
}

TEST(SnowMonitor, WriteTrafficIgnored) {
  TraceBuilder b;
  History h;
  h.num_objects = 2;
  TxnRecord w;
  w.id = 9;
  w.client = 3;
  w.is_read = false;
  w.complete = true;
  h.txns.push_back(w);
  b.inv(3, 9);
  const auto s1 = b.send(3, 0, 9, "write-val");
  b.recv(0, 3, 9, "write-val", s1);
  // Server does NOT respond before another input — but txn 9 is a WRITE, so
  // the N verdict for reads is unaffected.
  const auto s2 = b.send(3, 1, 9, "write-val");
  b.recv(1, 3, 9, "write-val", s2);
  const auto report = analyze_snow_trace(b.t, 2, h);
  EXPECT_TRUE(report.satisfies_n());
  EXPECT_EQ(report.max_read_rounds, 0);
}

}  // namespace
}  // namespace snowkit

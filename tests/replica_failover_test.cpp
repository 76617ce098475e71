// Crash-tolerant shards (proto/replica.hpp) under the simulator's exact
// failure detector: primaries die mid-transaction, backups take over, and the
// oracle conditions are (1) no acknowledged write is ever lost, (2) reads
// stay non-blocking and strictly serializable across the failover.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "checker/snow_monitor.hpp"
#include "checker/tag_order.hpp"
#include "core/run_workload.hpp"
#include "core/system.hpp"
#include "proto/algo_b/algo_b.hpp"
#include "proto/algo_c/algo_c.hpp"
#include "sim/script.hpp"
#include "sim/sim_runtime.hpp"

namespace snowkit {
namespace {

// Node layout with replicas=2: servers [0,k), readers/writers [k, k+R+W),
// backup of shard s at k+R+W+s (proto/algo_b/algo_b.cpp keeps the plain
// layout untouched so recorded schedules stay valid).
NodeId backup_of(std::size_t k, std::size_t readers, std::size_t writers, std::size_t shard) {
  return static_cast<NodeId>(k + readers + writers + shard);
}

struct Rig {
  SimRuntime sim;
  HistoryRecorder rec;
  std::unique_ptr<ProtocolSystem> sys;

  Rig(bool algo_c, std::size_t k, std::size_t readers, std::size_t writers,
      std::uint64_t seed = 1)
      : sim(make_uniform_delay(10, 5000, seed)), rec(k) {
    if (algo_c) {
      AlgoCOptions opts;
      opts.replicas = 2;
      sys = build_algo_c(sim, rec, SystemConfig{k, readers, writers}, opts);
    } else {
      AlgoBOptions opts;
      opts.replicas = 2;
      sys = build_algo_b(sim, rec, SystemConfig{k, readers, writers}, opts);
    }
  }
};

void expect_clean_history(Rig& rig, const char* what) {
  const auto verdict = check_tag_order(rig.rec.snapshot());
  EXPECT_TRUE(verdict.ok) << what << ": " << verdict.explanation;
}

// --- failure-free replicated fleets behave exactly like the paper's ---------

TEST(ReplicaFailover, AlgoBReplicatedFleetKeepsTwoRoundsOneVersion) {
  Rig rig(false, 3, 2, 2);
  WorkloadSpec spec;
  spec.ops_per_reader = 25;
  spec.ops_per_writer = 10;
  spec.read_span = 2;
  WorkloadDriver driver(rig.sim, *rig.sys, spec);
  driver.start();
  rig.sim.run_until_idle();
  EXPECT_TRUE(driver.done());
  const History h = rig.rec.snapshot();
  const auto report = analyze_snow_trace(rig.sim.trace(), 3, h);
  EXPECT_TRUE(report.satisfies_n()) << (report.violations.empty() ? "" : report.violations[0]);
  // Replication must not cost the client anything: still 2 rounds, 1 version.
  EXPECT_EQ(report.max_read_rounds, 2);
  EXPECT_EQ(report.max_versions_per_response, 1);
  expect_clean_history(rig, "algo-b replicated, no faults");
}

TEST(ReplicaFailover, AlgoCReplicatedFleetKeepsOneRound) {
  Rig rig(true, 3, 2, 2);
  WorkloadSpec spec;
  spec.ops_per_reader = 25;
  spec.ops_per_writer = 10;
  spec.read_span = 2;
  WorkloadDriver driver(rig.sim, *rig.sys, spec);
  driver.start();
  rig.sim.run_until_idle();
  EXPECT_TRUE(driver.done());
  const History h = rig.rec.snapshot();
  const auto report = analyze_snow_trace(rig.sim.trace(), 3, h);
  EXPECT_TRUE(report.satisfies_n()) << (report.violations.empty() ? "" : report.violations[0]);
  EXPECT_EQ(report.max_read_rounds, 1);
  expect_clean_history(rig, "algo-c replicated, no faults");
}

TEST(ReplicaFailover, AlgoBFoldSurvivesACoordinatorCrash) {
  // An algo-b READ's round 1 is a read-vals-batch folding the get-tag-arr,
  // to s* (object 0's server).  s* dies with that batch undelivered, or
  // after it answered but with the answer undelivered: the READ restarts
  // at the backup that took over, whose fold returns the last WRITE with
  // one version per object.
  const std::vector<std::pair<const char*, script::Pred>> holds{
      {"the fold", script::all_of({script::asks_tag_arr(), script::to_node(0)})},
      {"its answer",
       script::all_of({script::payload_is("read-vals-batch-resp"), script::from_node(0)})},
  };
  for (const auto& [what, hold] : holds) {
    SCOPED_TRACE(what);
    Rig rig(false, 2, 1, 1);
    bool wrote = false;
    invoke_write(rig.sim, rig.sys->writer(0), {{0, 10}, {1, 20}},
                 [&](const TxnResult&) { wrote = true; });
    rig.sim.run_until_idle();
    ASSERT_TRUE(wrote);
    rig.sim.hold_matching(hold);
    TxnResult result;
    bool done = false;
    invoke_read(rig.sim, rig.sys->reader(0), {0, 1}, [&](const TxnResult& r) {
      result = r;
      done = true;
    });
    rig.sim.run_until_idle();
    ASSERT_FALSE(done);
    ASSERT_EQ(rig.sim.held().size(), 1u);
    rig.sim.hold_matching(nullptr);
    rig.sim.crash(0);
    rig.sim.run_until_idle();
    ASSERT_TRUE(done);
    EXPECT_EQ(result.values, (std::vector<std::pair<ObjectId, Value>>{{0, 10}, {1, 20}}));
    rig.sim.release_all();  // the dead primary's message reaches a finished READ
    rig.sim.run_until_idle();
    const auto report = analyze_snow_trace(rig.sim.trace(), 2, rig.rec.snapshot());
    EXPECT_TRUE(report.satisfies_n()) << (report.violations.empty() ? "" : report.violations[0]);
    EXPECT_EQ(report.max_versions_per_response, 1);
    expect_clean_history(rig, "algo-b fold across a coordinator crash");
  }
}

// --- killing a primary mid-run ----------------------------------------------

void crash_mid_workload(bool algo_c, std::size_t victim_shard, std::uint64_t seed) {
  Rig rig(algo_c, 3, 2, 2, seed);
  WorkloadSpec spec;
  spec.ops_per_reader = 30;
  spec.ops_per_writer = 15;
  spec.read_span = 2;
  spec.write_span = 2;
  spec.seed = seed;
  WorkloadDriver driver(rig.sim, *rig.sys, spec);
  driver.start();
  // Let some transactions commit, then kill the primary with traffic in
  // flight.  Shard 0 is the coordinator, so victim_shard=0 also exercises
  // CoorList takeover and read-round restarts.
  rig.sim.run_until([&] { return driver.completed_writes() >= 5; });
  ASSERT_TRUE(rig.sim.can_crash(static_cast<NodeId>(victim_shard)));
  rig.sim.crash(static_cast<NodeId>(victim_shard));
  rig.sim.run_until_idle();
  // Every submitted transaction still completes: clients re-route to the
  // backup and retry, and no acknowledged write is lost (a lost write would
  // surface as a tag-order violation in a later read).
  EXPECT_TRUE(driver.done()) << "workload wedged after crashing shard " << victim_shard;
  const auto report = analyze_snow_trace(rig.sim.trace(), 3, rig.rec.snapshot());
  EXPECT_TRUE(report.satisfies_n())
      << "reads blocked across failover: "
      << (report.violations.empty() ? "" : report.violations[0]);
  expect_clean_history(rig, algo_c ? "algo-c failover" : "algo-b failover");
}

TEST(ReplicaFailover, AlgoBSurvivesDataShardCrash) {
  for (std::uint64_t seed : {21ull, 22ull, 23ull}) crash_mid_workload(false, 1, seed);
}

TEST(ReplicaFailover, AlgoBSurvivesCoordinatorCrash) {
  for (std::uint64_t seed : {31ull, 32ull, 33ull}) crash_mid_workload(false, 0, seed);
}

TEST(ReplicaFailover, AlgoCSurvivesDataShardCrash) {
  for (std::uint64_t seed : {41ull, 42ull, 43ull}) crash_mid_workload(true, 2, seed);
}

TEST(ReplicaFailover, AlgoCSurvivesCoordinatorCrash) {
  for (std::uint64_t seed : {51ull, 52ull, 53ull}) crash_mid_workload(true, 0, seed);
}

// --- a finalize the primary applied but has not shipped ---------------------

/// Counts finalize deliveries per node, the replication batches that carry
/// a finalize, and keeps every read-vals-batch response by sender.
struct FinalizeWatch final : MessageObserver {
  std::map<NodeId, int> finalizes_delivered;
  int finalize_batches_sent{0};
  std::vector<std::pair<NodeId, ReadValsBatchResp>> chains;

  void on_send(NodeId from, NodeId, const Message& m, std::size_t) override {
    if (const auto* ar = std::get_if<ReplAppendReq>(&m.payload)) {
      const auto is_fin = [](const ReplRecord& r) { return r.kind == ReplRecord::kFinalize; };
      finalize_batches_sent += std::any_of(ar->records.begin(), ar->records.end(), is_fin);
    }
    if (const auto* rv = std::get_if<ReadValsBatchResp>(&m.payload)) chains.emplace_back(from, *rv);
  }
  void on_deliver(NodeId, NodeId to, const Message& m) override {
    if (std::holds_alternative<FinalizeReq>(m.payload)) ++finalizes_delivered[to];
  }
};

TEST(ReplicaFailover, APrimaryCrashInsideTheFinalizeLingerLosesNoAckedWrite) {
  // A finalize applies on the primary at once but reaches the log only with
  // the shard's next acknowledged batch, or alone after kFinalizeLinger.
  // The primary dies inside that linger, so the finalize is lost with it:
  // no acknowledged WRITE may go with it, and the writer re-sends the
  // finalizes it sent within 2 x kFinalizeLinger to the new primary, so
  // that keeps the paper's chain and nothing more.
  for (const std::size_t victim : {std::size_t{0}, std::size_t{1}}) {
    SCOPED_TRACE(victim == 0 ? "coordinator shard" : "data shard");
    Rig rig(/*algo_c=*/true, 2, 1, 1);
    const NodeId backup = backup_of(2, 1, 1, victim);
    FinalizeWatch watch;
    rig.sim.set_observer(&watch);
    const auto read = [&](Value a, Value b) {
      TxnResult result;
      invoke_read(rig.sim, rig.sys->reader(0), {0, 1}, [&](const TxnResult& r) { result = r; });
      rig.sim.run_until_idle();
      EXPECT_EQ(result.values, (std::vector<std::pair<ObjectId, Value>>{{0, a}, {1, b}}));
    };

    bool w1 = false;
    invoke_write(rig.sim, rig.sys->writer(0), {{0, 10}, {1, 20}},
                 [&](const TxnResult&) { w1 = true; });
    ASSERT_TRUE(rig.sim.run_until([&] {
      return watch.finalizes_delivered[0] == 1 && watch.finalizes_delivered[1] == 1;
    }));
    ASSERT_TRUE(w1);
    EXPECT_EQ(watch.finalize_batches_sent, 0) << "a finalize shipped inside the linger";
    rig.sim.crash(static_cast<NodeId>(victim));
    rig.sim.run_until_idle();
    read(10, 20);

    // WRITEs 2 and 3: WRITE 3's finalizes carry watermark 2, WRITE 2's List
    // position, to the stores.
    for (const Value v : {Value{1}, Value{2}}) {
      bool done = false;
      invoke_write(rig.sim, rig.sys->writer(0), {{0, 10 + v}, {1, 20 + v}},
                   [&](const TxnResult&) { done = true; });
      rig.sim.run_until_idle();
      ASSERT_TRUE(done);
    }
    watch.chains.clear();
    read(12, 22);
    // The new primary's chain for the victim's object is the paper's chain
    // at its watermark, and WRITE 1's version, whose finalize died
    // unshipped, is gone: the re-sent finalize finalized it and it was
    // pruned.  The data shard's watermark is 2, WRITE 2's List position,
    // from WRITE 3's finalizes, so it keeps WRITE 2's version (the anchor)
    // and WRITE 3's; s*'s shard follows its own List's watermark, 3 by the
    // time the READ lands, so it keeps WRITE 3's alone.
    const ObjectId obj = static_cast<ObjectId>(victim);
    const Value base = victim == 0 ? 10 : 20;
    const std::vector<Value> paper_chain =
        victim == 0 ? std::vector<Value>{base + 2} : std::vector<Value>{base + 1, base + 2};
    bool seen = false;
    for (const auto& [from, resp] : watch.chains) {
      if (from != backup) continue;
      for (const ObjectVersions& ov : resp.entries) {
        if (ov.obj != obj) continue;
        seen = true;
        std::vector<Value> kept;
        for (const Version& v : ov.versions) kept.push_back(v.value);
        EXPECT_EQ(kept, paper_chain);
      }
    }
    EXPECT_TRUE(seen) << "the READ did not reach the new primary " << backup;
    const auto report = analyze_snow_trace(rig.sim.trace(), 2, rig.rec.snapshot());
    EXPECT_TRUE(report.satisfies_n()) << (report.violations.empty() ? "" : report.violations[0]);
    expect_clean_history(rig, "crash inside the finalize linger");
    rig.sim.set_observer(nullptr);
  }
}

// --- WAL recovery: restart, rejoin, and survive a SECOND failover ------------

TEST(ReplicaFailover, RestartedPrimaryRejoinsAndTakesOverAgain) {
  Rig rig(false, 2, 1, 1);
  const NodeId backup1 = backup_of(2, 1, 1, 1);
  auto write = [&](Value a, Value b) {
    bool done = false;
    invoke_write(rig.sim, rig.sys->writer(0), {{0, a}, {1, b}},
                 [&](const TxnResult&) { done = true; });
    rig.sim.run_until_idle();
    EXPECT_TRUE(done);
  };
  auto read = [&](Value a, Value b) {
    TxnResult result;
    invoke_read(rig.sim, rig.sys->reader(0), {0, 1}, [&](const TxnResult& r) { result = r; });
    rig.sim.run_until_idle();
    ASSERT_EQ(result.values.size(), 2u);
    EXPECT_EQ(result.values[0].second, a);
    EXPECT_EQ(result.values[1].second, b);
  };

  write(10, 20);
  rig.sim.crash(1);  // shard 1's first primary dies
  rig.sim.run_until_idle();
  write(11, 21);  // committed by the backup-turned-primary
  read(11, 21);

  rig.sim.restart(1);  // old primary recovers from its WAL, rejoins as backup
  rig.sim.run_until_idle();
  EXPECT_TRUE(rig.sim.can_crash(backup1));
  rig.sim.crash(backup1);  // now kill the shard's SECOND primary
  rig.sim.run_until_idle();
  // The restarted node took over with full state: everything the dead
  // primary acknowledged — including writes from after the first failover
  // that the restarted node only saw via the rejoin catch-up — survives.
  read(11, 21);
  write(12, 22);
  read(12, 22);
  expect_clean_history(rig, "restart + second failover");
}

// --- update-coor retry dedup -------------------------------------------------

TEST(ReplicaFailover, UpdateCoorRetryIsDeduplicatedNotDoubleListed) {
  // Kill the coordinator AFTER it lists + replicates a WRITE but BEFORE the
  // writer sees the ack.  The writer's retry against the new primary must be
  // answered from the dedup table with the ORIGINAL List position — listing
  // it twice would give the WRITE two serialization points.
  Rig rig(false, 2, 1, 1);
  rig.sim.start();
  rig.sim.hold_matching(script::payload_is("update-coor-ack"));
  bool w_done = false;
  invoke_write(rig.sim, rig.sys->writer(0), {{0, 10}, {1, 20}},
               [&](const TxnResult&) { w_done = true; });
  rig.sim.run_until_idle();
  ASSERT_FALSE(w_done);  // listed and replicated, but the ack is held
  ASSERT_GE(rig.sim.held_count(), 1u);

  rig.sim.hold_matching(nullptr);  // the retry's ack must get through
  rig.sim.crash(0);
  rig.sim.run_until_idle();
  EXPECT_TRUE(w_done) << "retry against the new coordinator was not re-acked";

  TxnResult result;
  invoke_read(rig.sim, rig.sys->reader(0), {0, 1}, [&](const TxnResult& r) { result = r; });
  rig.sim.run_until_idle();
  ASSERT_EQ(result.values.size(), 2u);
  EXPECT_EQ(result.values[0].second, 10);
  EXPECT_EQ(result.values[1].second, 20);

  // The stale ack from the dead lineage arrives last; clients ignore it.
  rig.sim.release_all();
  rig.sim.run_until_idle();
  expect_clean_history(rig, "update-coor dedup");
}

TEST(ReplicaFailover, AnOvertakenUpdateCoorRetryIsNotListedAgain) {
  // The dead coordinator's held ack completes WRITE 1 after the writer has
  // re-sent its update-coor to the new primary, folded into s*'s write-val,
  // and that retry arrives after WRITE 2's.  Listing it would put WRITE 1
  // after WRITE 2 in the List, a second serialization point.
  Rig rig(false, 2, 1, 1);
  const NodeId backup0 = backup_of(2, 1, 1, 0);
  rig.sim.start();
  rig.sim.hold_matching(script::payload_is("update-coor-ack"));
  bool w1 = false;
  invoke_write(rig.sim, rig.sys->writer(0), {{0, 10}, {1, 20}},
               [&](const TxnResult&) { w1 = true; });
  rig.sim.run_until_idle();
  ASSERT_FALSE(w1);

  const script::Pred retry = script::all_of({script::payload_is("write-val"), script::to_node(backup0)});
  rig.sim.hold_matching(retry);
  rig.sim.crash(0);
  rig.sim.run_until_idle();
  ASSERT_FALSE(w1);
  rig.sim.hold_matching(nullptr);
  ASSERT_EQ(rig.sim.release_if(script::payload_is("update-coor-ack")), 1u);
  ASSERT_TRUE(w1) << "the listed WRITE's own ack did not complete it";

  bool w2 = false;
  invoke_write(rig.sim, rig.sys->writer(0), {{0, 11}, {1, 21}},
               [&](const TxnResult&) { w2 = true; });
  rig.sim.run_until_idle();
  ASSERT_TRUE(w2);
  ASSERT_EQ(rig.sim.release_if(retry), 1u);  // WRITE 1's retry
  rig.sim.run_until_idle();

  TxnResult result;
  invoke_read(rig.sim, rig.sys->reader(0), {0, 1}, [&](const TxnResult& r) { result = r; });
  rig.sim.run_until_idle();
  EXPECT_EQ(result.values, (std::vector<std::pair<ObjectId, Value>>{{0, 11}, {1, 21}}));
  expect_clean_history(rig, "overtaken update-coor retry");
}

TEST(ReplicaFailover, ACoordinatorCrashBetweenTwoRelayedAcksListsTheWriteOnce) {
  // s* (server 0) has the WRITE's update-coor and its own share and one of
  // the two acks servers 1 and 2 relay to it when its primary dies.  The
  // listing gate is primary-local, so the writer re-sends every write-val
  // and the update-coor to the new primary, which lists the WRITE once the
  // re-sent write-vals' acks arrive: the WRITE completes at List position
  // 1, and the next one lands at 2.
  Rig rig(false, 3, 1, 1);
  rig.sim.start();
  const script::Pred relayed =
      script::all_of({script::payload_is("write-val-ack"), script::to_node(0)});
  rig.sim.hold_matching(relayed);
  bool w1 = false;
  invoke_write(rig.sim, rig.sys->writer(0), {{0, 10}, {1, 11}, {2, 12}},
               [&](const TxnResult&) { w1 = true; });
  rig.sim.run_until_idle();
  ASSERT_EQ(rig.sim.held_count(), 2u);
  rig.sim.hold_matching(nullptr);
  ASSERT_TRUE(script::release_one_and_drain(rig.sim, relayed));
  ASSERT_FALSE(w1) << "listed on one of two acks";
  rig.sim.crash(0);
  rig.sim.run_until_idle();
  ASSERT_TRUE(w1) << "the new primary did not list the re-sent WRITE";
  rig.sim.release_all();  // the other ack, to the dead primary
  rig.sim.run_until_idle();

  bool w2 = false;
  invoke_write(rig.sim, rig.sys->writer(0), {{0, 20}, {2, 22}},
               [&](const TxnResult&) { w2 = true; });
  rig.sim.run_until_idle();
  ASSERT_TRUE(w2);
  std::vector<Tag> tags;
  for (const TxnRecord& t : rig.rec.snapshot().txns) {
    if (!t.is_read) tags.push_back(t.tag);
  }
  EXPECT_EQ(tags, (std::vector<Tag>{1, 2}));
  TxnResult result;
  invoke_read(rig.sim, rig.sys->reader(0), {0, 1, 2}, [&](const TxnResult& r) { result = r; });
  rig.sim.run_until_idle();
  EXPECT_EQ(result.values, (std::vector<std::pair<ObjectId, Value>>{{0, 20}, {1, 11}, {2, 22}}));
  expect_clean_history(rig, "coordinator crash between relayed acks");
}

TEST(ReplicaFailover, ARestartedReplicaRecoversBeforeItsFirstInput) {
  // A restarted node's first input can arrive ahead of its restart task.
  // Here it is the new primary's answer to the node's last append, a
  // newer-epoch ack that demotes it into a rejoin whose reset response
  // arrives before that task too.  Handled on the state on_crash()
  // cleared, the response refilled the List, and the boot that followed
  // re-applied the WAL onto it ("replicated List push landed at ...").
  Rig rig(false, 2, 1, 1);
  const NodeId backup0 = backup_of(2, 1, 1, 0);
  auto write = [&](Value a, Value b) {
    bool done = false;
    invoke_write(rig.sim, rig.sys->writer(0), {{0, a}, {1, b}},
                 [&](const TxnResult&) { done = true; });
    rig.sim.run_until_idle();
    EXPECT_TRUE(done);
  };
  write(10, 20);
  // Shard 0's primary logs WRITE 2's insert, but its append never reaches
  // the backup before the crash; the backup takes over and completes it.
  rig.sim.hold_matching(script::all_of({script::payload_is("repl-append"), script::from_node(0)}));
  bool done = false;
  invoke_write(rig.sim, rig.sys->writer(0), {{0, 11}, {1, 21}},
               [&](const TxnResult&) { done = true; });
  rig.sim.run_until_idle();
  ASSERT_FALSE(done);
  rig.sim.crash(0);
  rig.sim.run_until_idle();
  ASSERT_TRUE(done);

  // Everything to and from node 0 now waits for the script.
  rig.sim.hold_matching(script::any_of({script::to_node(0), script::from_node(0)}));
  ASSERT_EQ(rig.sim.release_if(script::between(0, backup0)), 1u);  // the stale append
  rig.sim.restart(0);  // posts the restart task; nothing runs yet
  ASSERT_EQ(rig.sim.release_if(script::payload_is("repl-append-ack")), 1u);
  ASSERT_GE(rig.sim.release_if(script::payload_is("repl-join")), 1u);
  ASSERT_GE(rig.sim.release_if(script::payload_is("repl-join-resp")), 1u);
  rig.sim.hold_matching(nullptr);
  rig.sim.release_all();
  rig.sim.run_until_idle();  // the restart task runs last

  TxnResult result;
  invoke_read(rig.sim, rig.sys->reader(0), {0, 1}, [&](const TxnResult& r) { result = r; });
  rig.sim.run_until_idle();
  EXPECT_EQ(result.values, (std::vector<std::pair<ObjectId, Value>>{{0, 11}, {1, 21}}));
  rig.sim.crash(backup0);  // the restarted node takes over with the full log
  rig.sim.run_until_idle();
  write(12, 22);
  invoke_read(rig.sim, rig.sys->reader(0), {0, 1}, [&](const TxnResult& r) { result = r; });
  rig.sim.run_until_idle();
  EXPECT_EQ(result.values, (std::vector<std::pair<ObjectId, Value>>{{0, 12}, {1, 22}}));
  expect_clean_history(rig, "input ahead of the restart task");
}

}  // namespace
}  // namespace snowkit

// A READ round sends one frame per server, not one per object: a server
// hosting several objects of a READ gets one read-val-batch or
// read-vals-batch and answers one response, for algo-a, algo-b, algo-c and
// occ-reads as for adaptive.  algo-b's, algo-c's and adaptive's get-tag-arr
// rides the coordinator shard's read-vals-batch when the round sends it
// one, so the coordinator is one of those servers too.  algo-b's round 1
// reaches every server, each answering one version per object, and its
// round 2 only the objects whose version the tag array refuted.  A
// failover re-sends one batch for the shard it moved, and a batched
// response counts its versions per object.  A reader's next READ releases the last one's registration at
// the coordinator, so a read-done goes out only after a reader idles for
// kReadDoneLinger.  Counted by payload on the simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "checker/snow_monitor.hpp"
#include "core/registry.hpp"
#include "core/system.hpp"
#include "metrics/gc_stats.hpp"
#include "sim/script.hpp"
#include "sim/sim_runtime.hpp"

namespace snowkit {
namespace {

/// Counts sends by payload name, and keeps each read-val-batch sent, the
/// objects and held versions of each read-vals-batch, the get-tag-arr folded
/// into each read-vals-batch, the objects each read-vals-batch-resp answers,
/// and when each read-done and update-coor-ack left.
struct Counter final : MessageObserver {
  const SimRuntime* sim{nullptr};  ///< the clock for the send times.
  std::map<std::string, int> sent;
  std::vector<std::pair<NodeId, ReadValBatchReq>> batches;  ///< (receiver, body).
  std::vector<std::pair<NodeId, std::vector<ObjectId>>> lists;   ///< (receiver, objs).
  std::vector<std::pair<NodeId, std::vector<ObjectId>>> folded;  ///< (receiver, I).
  std::vector<std::pair<NodeId, std::vector<HeldVersion>>> held;  ///< (receiver, held).
  std::vector<ObjectId> answered;  ///< the objects of every read-vals-batch-resp.
  std::vector<std::pair<TimeNs, TxnId>> read_dones;           ///< (sent at, READ).
  std::vector<std::pair<TimeNs, UpdateCoorAck>> coor_acks;    ///< (sent at, body).

  void on_send(NodeId, NodeId to, const Message& m, std::size_t) override {
    ++sent[payload_name(m.payload)];
    if (const auto* rb = std::get_if<ReadValBatchReq>(&m.payload)) batches.emplace_back(to, *rb);
    const auto* lb = std::get_if<ReadValsBatchReq>(&m.payload);
    if (lb) lists.emplace_back(to, lb->objs);
    if (lb && lb->tag_arr) folded.emplace_back(to, lb->tag_arr->objs);
    if (lb && !lb->held.empty()) held.emplace_back(to, lb->held);
    if (const auto* resp = std::get_if<ReadValsBatchResp>(&m.payload)) {
      for (const ObjectVersions& e : resp->entries) answered.push_back(e.obj);
    }
    if (const auto* rd = std::get_if<ReadDoneReq>(&m.payload)) {
      read_dones.emplace_back(sim->now_ns(), rd->txn);
    }
    if (const auto* ack = std::get_if<UpdateCoorAck>(&m.payload)) {
      coor_acks.emplace_back(sim->now_ns(), *ack);
    }
  }
  void on_deliver(NodeId, NodeId, const Message&) override {}

  int operator[](const std::string& name) const {
    const auto it = sent.find(name);
    return it == sent.end() ? 0 : it->second;
  }
  int total() const {
    int n = 0;
    for (const auto& [name, count] : sent) n += count;
    return n;
  }
  void reset() {
    const SimRuntime* clock = sim;
    *this = Counter{};
    sim = clock;
  }
};

/// 4 objects; with `servers` = 2 under range placement objects {0, 1} live
/// on shard 0 (the coordinator's) and {2, 3} on shard 1.
struct Rig {
  SimRuntime sim;
  HistoryRecorder rec{4};
  Counter count;
  std::unique_ptr<ProtocolSystem> sys;

  explicit Rig(const std::string& protocol, std::size_t servers = 2,
               const BuildOptions& opts = {})
      : sim(make_uniform_delay(10, 5000, 7)) {
    SystemConfig cfg{4, 1, 1};
    cfg.num_servers = servers;
    cfg.placement = PlacementKind::kRange;
    sys = ProtocolRegistry::global().build(protocol, sim, rec, cfg, opts);
    count.sim = &sim;
    sim.set_observer(&count);
    sim.run_until_idle();  // replica boot
    count.reset();
  }

  TxnResult read(std::vector<ObjectId> objs) {
    TxnResult result;
    bool done = false;
    invoke_read(sim, sys->reader(0), std::move(objs), [&](const TxnResult& r) {
      result = r;
      done = true;
    });
    sim.run_until_idle();
    EXPECT_TRUE(done);
    return result;
  }

  void write(std::vector<std::pair<ObjectId, Value>> writes) {
    bool done = false;
    invoke_write(sim, sys->writer(0), std::move(writes), [&](const TxnResult&) { done = true; });
    sim.run_until_idle();
    ASSERT_TRUE(done);
  }

  /// Runs a WRITE that misses no server off s*'s shard up to the acks those
  /// servers relay to s*, which are held: they then store a version the
  /// coordinator has not listed (s*'s own share waits in its listing gate).
  /// release_all() lets the WRITE finish.
  void write_unlisted(std::vector<std::pair<ObjectId, Value>> writes) {
    sim.hold_matching([](NodeId, NodeId, const Message& m) {
      return std::holds_alternative<WriteValAck>(m.payload);
    });
    invoke_write(sim, sys->writer(0), std::move(writes), [](const TxnResult&) {});
    sim.run_until_idle();
    sim.hold_matching(nullptr);
    ASSERT_FALSE(sim.held().empty());
  }

  /// The most rounds and the most versions per object of any response.
  SnowTraceReport report() const {
    return analyze_snow_trace(sim.trace(), sys->num_servers(), rec.snapshot());
  }
};

TEST(ReadFanOut, AlgoBReadSendsOneBatchPerServer) {
  Rig rig("algo-b");
  rig.read({3, 0, 2, 1});
  // Round 1 is one read-vals-batch per server, s*'s carrying the folded
  // get-tag-arr, and no WRITE refutes the other server's guesses: 2S + 1
  // frames with the read-done.  A round 2 to the other server made it 5
  // too, but in two rounds; a get-tag-arr and its reply of their own with a
  // round-2 batch to each server made it 7, and one read-val and one
  // response per object 11.
  EXPECT_EQ(rig.count.total(), 5);
  EXPECT_EQ(rig.count["get-tag-arr"], 0);
  EXPECT_EQ(rig.count["tag-arr"], 0);
  EXPECT_EQ(rig.count["read-vals-batch"], 2);
  EXPECT_EQ(rig.count["read-vals-batch-resp"], 2);
  EXPECT_EQ(rig.count["read-val-batch"], 0);
  EXPECT_EQ(rig.count["read-done"], 1);
  EXPECT_EQ(rig.count.folded,
            (std::vector<std::pair<NodeId, std::vector<ObjectId>>>{{0, {0, 1, 2, 3}}}));
  EXPECT_EQ(rig.count.lists,
            (std::vector<std::pair<NodeId, std::vector<ObjectId>>>{{0, {0, 1}}, {1, {2, 3}}}));
}

TEST(ReadFanOut, AlgoBConfirmedGuessTakesOneRoundAndFiveFrames) {
  // Server 1 last inserted the WRITE the tag array lists for objects 2 and
  // 3, so its round-1 guesses hold: one round, 2S + 1 frames, one version
  // per object in every response.
  Rig rig("algo-b");
  rig.write({{0, 10}, {1, 11}, {2, 12}, {3, 13}});
  rig.write({{2, 22}, {3, 23}});
  rig.count.reset();
  const TxnResult r = rig.read({0, 1, 2, 3});
  EXPECT_EQ(r.values,
            (std::vector<std::pair<ObjectId, Value>>{{0, 10}, {1, 11}, {2, 22}, {3, 23}}));
  EXPECT_EQ(rig.count.total(), 5);
  EXPECT_EQ(rig.count["read-vals-batch"], 2);
  EXPECT_EQ(rig.count["read-vals-batch-resp"], 2);
  EXPECT_EQ(rig.count["read-val-batch"], 0);
  EXPECT_EQ(rig.count["read-done"], 1);
  const SnowTraceReport report = rig.report();
  EXPECT_EQ(report.max_read_rounds, 1);
  EXPECT_EQ(report.max_versions_per_response, 1);
}

TEST(ReadFanOut, AlgoBRefutedGuessTakesRoundTwoForTheListedValue) {
  // Server 1 stores a WRITE of object 2 whose relayed ack is held, so the
  // version it inserted last is newer than the one the tag array lists.
  // The READ must not return it: round 2 fetches the listed key of object 2
  // alone, and every response still carries one version per object.
  Rig rig("algo-b");
  rig.write({{2, 12}, {3, 13}});
  rig.write_unlisted({{2, 22}});
  rig.count.reset();
  const TxnResult r = rig.read({0, 1, 2, 3});
  EXPECT_EQ(r.values, (std::vector<std::pair<ObjectId, Value>>{{0, 0}, {1, 0}, {2, 12}, {3, 13}}));
  ASSERT_EQ(rig.count.batches.size(), 1u);
  EXPECT_EQ(rig.count.batches[0].first, 1u);
  ASSERT_EQ(rig.count.batches[0].second.entries.size(), 1u);
  EXPECT_EQ(rig.count.batches[0].second.entries[0].obj, 2u);
  SnowTraceReport report = rig.report();
  EXPECT_EQ(report.max_read_rounds, 2);
  EXPECT_EQ(report.max_versions_per_response, 1);
  // Once the WRITE is listed, the same guess holds: one round.
  rig.sim.release_all();
  rig.sim.run_until_idle();
  rig.count.reset();
  const TxnResult after = rig.read({2, 3});
  EXPECT_EQ(after.values, (std::vector<std::pair<ObjectId, Value>>{{2, 22}, {3, 13}}));
  EXPECT_EQ(rig.count["read-val-batch"], 0);
}

TEST(ReadFanOut, AlgoBGuessesHoldWithoutGc) {
  // gc_versions=false: finalizes are not applied, and every store keeps
  // every version, yet each server still answers one version per object,
  // the one it inserted last, and the READ takes one round.
  Rig rig("algo-b", 2, BuildOptions{}.set("gc_versions", false));
  rig.write({{0, 10}, {2, 12}});
  rig.write({{1, 21}, {2, 22}, {3, 23}});
  rig.count.reset();
  const TxnResult r = rig.read({0, 1, 2, 3});
  EXPECT_EQ(r.values,
            (std::vector<std::pair<ObjectId, Value>>{{0, 10}, {1, 21}, {2, 22}, {3, 23}}));
  EXPECT_EQ(rig.count.total(), 5);
  EXPECT_EQ(rig.count["read-val-batch"], 0);
  const SnowTraceReport report = rig.report();
  EXPECT_EQ(report.max_read_rounds, 1);
  EXPECT_EQ(report.max_versions_per_response, 1);
}

TEST(ReadFanOut, AlgoBReadOfTheCoordinatorsShardTakesOneRoundAndOneVersion) {
  // Every object on s*'s shard: the folded response resolves them all, so
  // no round 2 goes out.  Without GC each store keeps every version, and
  // s* still answers the one its tag array names.
  Rig rig("algo-b", 2, BuildOptions{}.set("gc_versions", false));
  rig.write({{0, 10}, {1, 11}});
  rig.write({{0, 20}, {1, 21}});
  rig.count.reset();
  const TxnResult r = rig.read({1, 0});
  EXPECT_EQ(r.values, (std::vector<std::pair<ObjectId, Value>>{{1, 21}, {0, 20}}));
  EXPECT_EQ(rig.count.total(), 3);  // folded batch, its response, read-done
  EXPECT_EQ(rig.count["read-val-batch"], 0);
  const History h = rig.rec.snapshot();
  ASSERT_EQ(h.completed_reads(), 1u);
  for (const TxnRecord& t : h.txns) {
    if (t.is_read) EXPECT_EQ(t.rounds, 1);
  }
  const SnowTraceReport report = analyze_snow_trace(rig.sim.trace(), 2, h);
  EXPECT_EQ(report.max_read_rounds, 1);
  EXPECT_EQ(report.max_versions_per_response, 1);
}

TEST(ReadFanOut, AlgoBMixedReadSendsRoundTwoToTheOtherShardsOnly) {
  // One object per server, s* = server 0: a READ of objects 0, 2 and 3
  // sends round 1 to servers 0, 2 and 3.  Servers 2 and 3 both hold an
  // unlisted WRITE, and round 2 goes to them alone; object 0 resolved in
  // round 1 at s*, whatever WRITE races it there.
  Rig rig("algo-b", /*servers=*/0);
  rig.write({{0, 10}, {2, 12}, {3, 13}});
  rig.write_unlisted({{0, 20}, {2, 22}, {3, 23}});
  rig.count.reset();
  const TxnResult r = rig.read({3, 0, 2});
  EXPECT_EQ(r.values, (std::vector<std::pair<ObjectId, Value>>{{3, 13}, {0, 10}, {2, 12}}));
  std::vector<NodeId> round1;
  for (const auto& [to, objs] : rig.count.lists) round1.push_back(to);
  std::sort(round1.begin(), round1.end());
  EXPECT_EQ(round1, (std::vector<NodeId>{0, 2, 3}));
  std::vector<NodeId> round2;
  for (const auto& [to, batch] : rig.count.batches) round2.push_back(to);
  std::sort(round2.begin(), round2.end());
  EXPECT_EQ(round2, (std::vector<NodeId>{2, 3}));
  EXPECT_EQ(rig.count.folded,
            (std::vector<std::pair<NodeId, std::vector<ObjectId>>>{{0, {0, 2, 3}}}));
  const SnowTraceReport report = rig.report();
  EXPECT_EQ(report.max_read_rounds, 2);
  EXPECT_EQ(report.max_versions_per_response, 1);
  rig.sim.release_all();
  rig.sim.run_until_idle();
}

TEST(ReadFanOut, AlgoBFoldReturnsAWriteThatCompletedBeforeTheRead) {
  // Each READ follows a WRITE of s*'s objects that completed before it
  // began: the folded response alone must carry that WRITE's values, with
  // GC pruning the older versions and without.
  for (const bool gc : {true, false}) {
    SCOPED_TRACE(gc ? "gc on" : "gc off");
    Rig rig("algo-b", 2, BuildOptions{}.set("gc_versions", gc));
    for (Value v = 1; v <= 3; ++v) {
      rig.write({{0, 10 * v}, {1, 10 * v + 1}});
      rig.count.reset();
      const TxnResult r = rig.read({0, 1});
      EXPECT_EQ(r.values,
                (std::vector<std::pair<ObjectId, Value>>{{0, 10 * v}, {1, 10 * v + 1}}));
      EXPECT_EQ(rig.count["read-val-batch"], 0) << "the fold missed the completed WRITE";
    }
  }
}

TEST(ReadFanOut, AlgoCReadSendsOneBatchPerServer) {
  Rig rig("algo-c");
  rig.write({{2, 20}, {1, 10}});
  rig.count.reset();
  const TxnResult r = rig.read({0, 1, 2, 3});
  EXPECT_EQ(r.values, (std::vector<std::pair<ObjectId, Value>>{{0, 0}, {1, 10}, {2, 20}, {3, 0}}));
  // 2 batches + 2 responses + read-done: the get-tag-arr and its tag-arr
  // ride s*'s batch and response.  7 with them standalone, 11 with one
  // read-vals per object.
  EXPECT_EQ(rig.count.total(), 5);
  EXPECT_EQ(rig.count["get-tag-arr"], 0);
  EXPECT_EQ(rig.count["tag-arr"], 0);
  EXPECT_EQ(rig.count["read-vals-batch"], 2);
  EXPECT_EQ(rig.count["read-vals-batch-resp"], 2);
  EXPECT_EQ(rig.count["read-done"], 1);
  // The folded get-tag-arr names the whole READ, not just s*'s objects.
  EXPECT_EQ(rig.count.folded,
            (std::vector<std::pair<NodeId, std::vector<ObjectId>>>{{0, {0, 1, 2, 3}}}));
}

TEST(ReadFanOut, AlgoCReadMissingTheCoordinatorsShardSendsItsGetTagArrAlone) {
  // Objects 2 and 3 live on shard 1 only: s* gets a get-tag-arr of its own,
  // 2S + 3 frames for S = 1.
  Rig rig("algo-c");
  rig.write({{2, 20}});
  rig.count.reset();
  const TxnResult r = rig.read({3, 2});
  EXPECT_EQ(r.values, (std::vector<std::pair<ObjectId, Value>>{{3, 0}, {2, 20}}));
  EXPECT_EQ(rig.count.total(), 5);
  EXPECT_EQ(rig.count["get-tag-arr"], 1);
  EXPECT_EQ(rig.count["tag-arr"], 1);
  EXPECT_EQ(rig.count["read-vals-batch"], 1);
  EXPECT_EQ(rig.count["read-vals-batch-resp"], 1);
  EXPECT_EQ(rig.count["read-done"], 1);
  EXPECT_TRUE(rig.count.folded.empty());
}

TEST(ReadFanOut, AlgoAReadSendsOneBatchPerServer) {
  Rig rig("algo-a");
  rig.write({{0, 5}, {3, 7}});
  rig.count.reset();
  const TxnResult r = rig.read({0, 1, 2, 3});
  EXPECT_EQ(r.values, (std::vector<std::pair<ObjectId, Value>>{{0, 5}, {1, 0}, {2, 0}, {3, 7}}));
  EXPECT_EQ(rig.count.total(), 4);  // 8 with one read-val per object
  EXPECT_EQ(rig.count["read-val-batch"], 2);
  EXPECT_EQ(rig.count["read-val-batch-resp"], 2);
}

TEST(ReadFanOut, OccValidatedOptimisticRoundSendsOneBatchPerServer) {
  // No WRITE races the READ, so its first round validates.
  Rig rig("occ-reads");
  rig.read({0, 1, 2, 3});
  EXPECT_EQ(rig.count.total(), 7);  // 11 with one read-val per object
  EXPECT_EQ(rig.count["get-tag-arr"], 1);
  EXPECT_EQ(rig.count["read-val-batch"], 2);
  EXPECT_EQ(rig.count["read-val-batch-resp"], 2);
  EXPECT_EQ(rig.count["read-done"], 1);
  // After a WRITE the kappa_0 guesses fail validation: a second round, again
  // one batch per server, now for the keys the tag array named.
  rig.write({{1, 11}, {2, 12}});
  rig.count.reset();
  const TxnResult r = rig.read({0, 1, 2, 3});
  EXPECT_EQ(r.values, (std::vector<std::pair<ObjectId, Value>>{{0, 0}, {1, 11}, {2, 12}, {3, 0}}));
  EXPECT_EQ(rig.count["get-tag-arr"], 2);
  EXPECT_EQ(rig.count["read-val-batch"], 4);
  EXPECT_EQ(rig.count["read-val-batch-resp"], 4);
}

TEST(ReadFanOut, AdaptiveFoldsItsGetTagArrIntoTheCoordinatorsPrefetch) {
  // Every READ reaches each server it reads with one read-vals-batch, and
  // its get-tag-arr rides s*'s (7 frames with it standalone).  Each object
  // names the version the reader holds, the initial one before any READ
  // cached another, and a server leaves a held version out of its answer.
  Rig rig("adaptive");
  const auto rounds = [&] { return rig.rec.snapshot().txns.back().rounds; };
  rig.read({0, 1, 2, 3});
  EXPECT_EQ(rig.count.total(), 5);
  EXPECT_EQ(rig.count["get-tag-arr"], 0);
  EXPECT_EQ(rig.count["adapt-tag-arr"], 0);
  EXPECT_EQ(rig.count["read-vals-batch"], 2);
  EXPECT_EQ(rig.count["read-vals-batch-resp"], 2);
  EXPECT_EQ(rig.count["read-done"], 1);
  EXPECT_EQ(rig.count.folded,
            (std::vector<std::pair<NodeId, std::vector<ObjectId>>>{{0, {0, 1, 2, 3}}}));
  EXPECT_EQ(rig.count.held,
            (std::vector<std::pair<NodeId, std::vector<HeldVersion>>>{
                {0, {{0, kInitialKey, false}, {1, kInitialKey, false}}},
                {1, {{2, kInitialKey, false}, {3, kInitialKey, false}}}}));
  EXPECT_TRUE(rig.count.answered.empty());
  // A READ that misses s*'s shard sends its get-tag-arr alone.
  rig.count.reset();
  rig.read({2, 3});
  EXPECT_EQ(rig.count.total(), 5);
  EXPECT_EQ(rig.count["get-tag-arr"], 1);
  EXPECT_EQ(rig.count["adapt-tag-arr"], 1);
  // A WRITE makes the cached keys of two objects stale: their server
  // answers the versions it inserted last, which the tag array confirms, so
  // the READ still takes one round, and s*'s cache hits cost no version.
  rig.write({{2, 20}, {3, 30}});
  rig.count.reset();
  TxnResult r = rig.read({0, 1, 2, 3});
  EXPECT_EQ(r.values, (std::vector<std::pair<ObjectId, Value>>{{0, 0}, {1, 0}, {2, 20}, {3, 30}}));
  EXPECT_EQ(rounds(), 1);
  EXPECT_EQ(rig.count.total(), 5);
  EXPECT_EQ(rig.count["read-val-batch"], 0);
  EXPECT_EQ(rig.count.answered, (std::vector<ObjectId>{2, 3}));
  // Stale keys on s*'s shard: s* answers latest[obj] in the step that built
  // the tag array; server 1's objects now hit.
  rig.write({{0, 5}, {1, 6}});
  rig.count.reset();
  r = rig.read({0, 1, 2, 3});
  EXPECT_EQ(r.values, (std::vector<std::pair<ObjectId, Value>>{{0, 5}, {1, 6}, {2, 20}, {3, 30}}));
  EXPECT_EQ(rounds(), 1);
  EXPECT_EQ(rig.count.total(), 5);
  EXPECT_EQ(rig.count.answered, (std::vector<ObjectId>{0, 1}));
  // A guess an unlisted WRITE refutes: server 1 inserted a version of
  // object 2 the tag array does not name yet, so round 2 fetches the listed
  // one, for that object alone.
  rig.write({{2, 21}});
  rig.write_unlisted({{2, 22}});
  rig.count.reset();
  r = rig.read({2, 3});
  EXPECT_EQ(r.values, (std::vector<std::pair<ObjectId, Value>>{{2, 21}, {3, 30}}));
  EXPECT_EQ(rounds(), 2);
  ASSERT_EQ(rig.count.batches.size(), 1u);
  EXPECT_EQ(rig.count.batches[0].first, 1u);
  ASSERT_EQ(rig.count.batches[0].second.entries.size(), 1u);
  EXPECT_EQ(rig.count.batches[0].second.entries[0].obj, 2u);
  rig.sim.release_all();
  rig.sim.run_until_idle();
}

TEST(ReadFanOut, OneServerPerObjectKeepsThePaperFanOut) {
  // The paper's model: every object is its own server, so each batch names
  // one object and the fan-out is per object as in Pseudocodes 4-7.
  for (const char* protocol : {"algo-a", "algo-b", "algo-c", "occ-reads"}) {
    SCOPED_TRACE(protocol);
    Rig rig(protocol, /*servers=*/0);
    rig.read({0, 1, 2});
    EXPECT_EQ(rig.count["read-val-batch"] + rig.count["read-vals-batch"], 3);
    EXPECT_EQ(rig.count["read-val-batch-resp"] + rig.count["read-vals-batch-resp"], 3);
  }
}

TEST(ReadFanOut, TakeoverResendsOneBatchForTheShardThatMoved) {
  // Shard 1's primary dies with the READ's batch to it undelivered: the
  // reader re-sends one batch, naming the shard's objects it still needs,
  // to the backup that took over — and nothing for shard 0, which already
  // answered.  First with the round-1 read-vals-batch held, then with the
  // round-2 read-val-batch for a guess an unlisted WRITE refuted.
  SystemConfig cfg{4, 1, 1};
  cfg.num_servers = 2;
  for (const bool round2 : {false, true}) {
    SCOPED_TRACE(round2 ? "round 2" : "round 1");
    Rig rig("algo-b", 2, BuildOptions{}.set("replicas", std::int64_t{2}));
    rig.write({{1, 11}, {2, 22}});
    if (round2) rig.write_unlisted({{2, 32}});
    rig.sim.hold_matching([round2](NodeId, NodeId to, const Message& m) {
      return to == 1 && (round2 ? std::holds_alternative<ReadValBatchReq>(m.payload)
                                : std::holds_alternative<ReadValsBatchReq>(m.payload));
    });
    TxnResult result;
    bool done = false;
    invoke_read(rig.sim, rig.sys->reader(0), {0, 1, 2, 3}, [&](const TxnResult& r) {
      result = r;
      done = true;
    });
    rig.sim.run_until_idle();
    ASSERT_FALSE(done);
    const std::size_t held = round2 ? 2u : 1u;  // with the unlisted WRITE's relayed ack
    ASSERT_EQ(rig.sim.held().size(), held);
    rig.sim.hold_matching(nullptr);
    rig.count.reset();
    rig.sim.crash(1);
    rig.sim.run_until_idle();
    ASSERT_TRUE(done);
    EXPECT_EQ(result.values,
              (std::vector<std::pair<ObjectId, Value>>{{0, 0}, {1, 11}, {2, 22}, {3, 0}}));
    if (round2) {
      EXPECT_TRUE(rig.count.lists.empty());
      ASSERT_EQ(rig.count.batches.size(), 1u);
      EXPECT_EQ(rig.count.batches[0].first, cfg.backup_node(1));
      const std::vector<BatchReadEntry>& entries = rig.count.batches[0].second.entries;
      ASSERT_EQ(entries.size(), 1u);
      EXPECT_EQ(entries[0].obj, 2u);
    } else {
      EXPECT_TRUE(rig.count.batches.empty());
      EXPECT_EQ(rig.count.lists, (std::vector<std::pair<NodeId, std::vector<ObjectId>>>{
                                     {cfg.backup_node(1), {2, 3}}}));
    }
    EXPECT_EQ(rig.count["get-tag-arr"], 0) << "a non-coordinator takeover restarted the READ";
    rig.sim.release_all();  // the dead primary's batch goes nowhere
    rig.sim.run_until_idle();
  }
}

TEST(ReadFanOut, TakeoverOfTheCoordinatorsShardResendsOneFoldedBatch) {
  // s*'s primary dies with the READ's folded batch to it undelivered: the
  // restarted attempt folds its get-tag-arr into one batch to the backup
  // that took over, and sends no get-tag-arr of its own.
  Rig rig("algo-c", 2, BuildOptions{}.set("replicas", std::int64_t{2}));
  rig.write({{1, 11}, {2, 22}});
  rig.sim.hold_matching(script::all_of({script::asks_tag_arr(), script::to_node(0)}));
  TxnResult result;
  bool done = false;
  invoke_read(rig.sim, rig.sys->reader(0), {0, 1, 2, 3}, [&](const TxnResult& r) {
    result = r;
    done = true;
  });
  rig.sim.run_until_idle();
  ASSERT_FALSE(done);
  ASSERT_EQ(rig.sim.held().size(), 1u);
  rig.sim.hold_matching(nullptr);
  rig.count.reset();
  rig.sim.crash(0);
  rig.sim.run_until_idle();
  ASSERT_TRUE(done);
  EXPECT_EQ(result.values,
            (std::vector<std::pair<ObjectId, Value>>{{0, 0}, {1, 11}, {2, 22}, {3, 0}}));
  SystemConfig cfg{4, 1, 1};
  cfg.num_servers = 2;
  EXPECT_EQ(rig.count.folded,
            (std::vector<std::pair<NodeId, std::vector<ObjectId>>>{{cfg.backup_node(0),
                                                                    {0, 1, 2, 3}}}));
  EXPECT_EQ(rig.count["get-tag-arr"], 0);
  rig.sim.release_all();  // the dead primary's batch goes nowhere
  rig.sim.run_until_idle();
}

/// The protocols whose READs register at the coordinator.
const char* const kRegisteringProtocols[] = {"algo-b", "algo-c", "adaptive", "occ-reads"};

TEST(ReadFanOut, ALoneReadSendsItsReadDoneOneLingerAfterItCompletes) {
  for (const char* protocol : kRegisteringProtocols) {
    SCOPED_TRACE(protocol);
    Rig rig(protocol);
    TxnId txn = kInvalidTxn;
    TimeNs done_at = 0;
    invoke_read(rig.sim, rig.sys->reader(0), {0, 1, 2, 3}, [&](const TxnResult& r) {
      txn = r.txn;
      done_at = rig.sim.now_ns();
    });
    rig.sim.run_until_idle();
    ASSERT_NE(txn, kInvalidTxn);
    EXPECT_EQ(rig.count.read_dones,
              (std::vector<std::pair<TimeNs, TxnId>>{{done_at + kReadDoneLinger, txn}}));
  }
}

TEST(ReadFanOut, BackToBackReadsSendOneReadDone) {
  // The second READ begins inside the first's linger, at once or halfway
  // through it: its registration releases the first's floor, and the one
  // read-done, the second's, leaves one linger after the second completes.
  for (const TimeNs gap : {TimeNs{0}, kReadDoneLinger / 2}) {
    for (const char* protocol : kRegisteringProtocols) {
      SCOPED_TRACE(std::string(protocol) + " gap " + std::to_string(gap));
      Rig rig(protocol);
      ReadClient& reader = rig.sys->reader(0);
      TxnId second = kInvalidTxn;
      TimeNs done_at = 0;
      invoke_read(rig.sim, reader, {0, 2}, [&](const TxnResult&) {
        rig.sim.post_after(reader.id(), gap, [&] {
          invoke_read(rig.sim, reader, {1, 3}, [&](const TxnResult& r) {
            second = r.txn;
            done_at = rig.sim.now_ns();
          });
        });
      });
      rig.sim.run_until_idle();
      ASSERT_NE(second, kInvalidTxn);
      EXPECT_EQ(rig.count.read_dones,
                (std::vector<std::pair<TimeNs, TxnId>>{{done_at + kReadDoneLinger, second}}));
    }
  }
}

TEST(ReadFanOut, AnIdleReaderStopsPinningTheWatermarkAfterTheLinger) {
  // One READ at t = 0, then the reader idles while a WRITE of object 0
  // lands every millisecond for three lingers.  The READ's floor (G = 0)
  // pins the watermark W, so object 0's chain grows, until its read-done
  // goes out one linger after it completed; then W reaches G and the chain
  // shrinks back to its anchor and the newest version.  occ-reads prunes
  // only with gc_versions set.
  constexpr TimeNs kMs = 1'000'000;
  constexpr int kWrites = 3 * static_cast<int>(kReadDoneLinger / kMs);
  for (const char* protocol : kRegisteringProtocols) {
    SCOPED_TRACE(protocol);
    Rig rig(protocol, 2, BuildOptions{}.set("gc_versions", true));
    std::uint64_t live_before = 0;  // the READ has made every object's store
    TxnId read_txn = kInvalidTxn;
    TimeNs done_at = 0;
    invoke_read(rig.sim, rig.sys->reader(0), {0, 1, 2, 3}, [&](const TxnResult& r) {
      read_txn = r.txn;
      done_at = rig.sim.now_ns();
      live_before = GcCounters::global().snapshot().live;
    });
    WriteClient& writer = rig.sys->writer(0);
    for (int i = 1; i <= kWrites; ++i) {
      rig.sim.post_after(writer.id(), static_cast<TimeNs>(i) * kMs, [&writer, i] {
        writer.write({{0, i}}, [](const TxnResult&) {});
      });
    }
    // Half a write before the linger ends, every WRITE so far is retained.
    rig.sim.run_until([&] { return rig.sim.now_ns() >= kReadDoneLinger - kMs / 2; });
    ASSERT_GT(done_at, 0u);
    const std::uint64_t live_pinned = GcCounters::global().snapshot().live - live_before;
    rig.sim.run_until_idle();
    const std::uint64_t live_after = GcCounters::global().snapshot().live - live_before;

    const TimeNs released_at = done_at + kReadDoneLinger;
    ASSERT_EQ(rig.count.coor_acks.size(), static_cast<std::size_t>(kWrites));
    for (const auto& [at, ack] : rig.count.coor_acks) {
      if (at < released_at) EXPECT_EQ(ack.watermark, 0u) << "position " << ack.tag;
    }
    const UpdateCoorAck& last = rig.count.coor_acks.back().second;
    EXPECT_EQ(last.watermark, last.tag - 1) << "W never reached G";
    EXPECT_GE(live_pinned, static_cast<std::uint64_t>(kWrites / 3 - 1));
    EXPECT_LE(live_after, 1u) << "object 0's chain did not shrink back to two versions";
    EXPECT_EQ(rig.count.read_dones,
              (std::vector<std::pair<TimeNs, TxnId>>{{released_at, read_txn}}));
  }
}

TEST(ReadFanOut, ABatchedResponseCountsVersionsPerObject) {
  // Two objects on one server answer in one frame; that frame still carries
  // one version per object, which is what the O property counts: s*'s
  // folded response, and the other server's response to a batch that
  // misses s*'s shard (its get-tag-arr goes alone), each in round 1.
  Rig rig("algo-b");
  rig.write({{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  rig.read({0, 1});
  SnowTraceReport report = rig.report();
  EXPECT_EQ(rig.count["read-vals-batch-resp"], 1);
  EXPECT_EQ(report.max_versions_per_response, 1);
  EXPECT_EQ(report.max_read_rounds, 1);
  rig.read({2, 3});
  report = rig.report();
  EXPECT_EQ(rig.count["read-vals-batch-resp"], 2);
  EXPECT_EQ(rig.count["get-tag-arr"], 1);
  EXPECT_EQ(rig.count["read-val-batch-resp"], 0);
  EXPECT_EQ(report.max_versions_per_response, 1);
  EXPECT_EQ(report.max_read_rounds, 1);
}

}  // namespace
}  // namespace snowkit

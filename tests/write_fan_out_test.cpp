// The WRITE path sends one frame per server per step, not one per object:
// a server hosting several objects of a WRITE gets one write-val, relays
// one ack to s* and gets one finalize; s*'s shard's write-val carries the
// update-coor and its finalize the finalize-coor notice, so a WRITE over S
// servers is 3S frames, or 3S + 3 when it misses s*'s shard; and each
// replicated handler step someone waits on ships exactly one ReplAppendReq,
// carrying any finalize the shard applied before it, while a finalize with
// no such step after it ships alone once it has waited kFinalizeLinger.
// Counted by payload on the simulator.  On fixed delays a WRITE takes 3
// hops (7 with backups), since its servers relay their acks to s*.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "core/registry.hpp"
#include "core/system.hpp"
#include "proto/replica.hpp"
#include "sim/sim_runtime.hpp"

namespace snowkit {
namespace {

/// Counts sends and deliveries by payload name, and keeps the replication
/// batches with the virtual time each was sent at.
struct Counter final : MessageObserver {
  const Runtime* rt{nullptr};
  std::map<std::string, int> sent;
  std::map<std::string, int> delivered;
  std::vector<TimeNs> append_times;
  std::vector<std::pair<NodeId, ReplAppendReq>> appends;  ///< (sender, batch).
  std::vector<std::pair<NodeId, FinalizeReq>> finalizes;  ///< (receiver, body).
  std::vector<Tag> tag_arr_watermarks;

  void on_send(NodeId from, NodeId to, const Message& m, std::size_t) override {
    ++sent[payload_name(m.payload)];
    if (const auto* ar = std::get_if<ReplAppendReq>(&m.payload)) {
      appends.emplace_back(from, *ar);
      append_times.push_back(rt->now_ns());
    }
    if (const auto* fin = std::get_if<FinalizeReq>(&m.payload)) finalizes.emplace_back(to, *fin);
    // A tag array standalone or folded into s*'s read-vals-batch-resp.
    const auto* ta = std::get_if<GetTagArrResp>(&m.payload);
    if (const auto* rv = std::get_if<ReadValsBatchResp>(&m.payload); rv && rv->tag_arr) {
      ta = std::get_if<GetTagArrResp>(&*rv->tag_arr);
    }
    if (ta != nullptr) tag_arr_watermarks.push_back(ta->watermark);
  }
  void on_deliver(NodeId, NodeId, const Message& m) override {
    ++delivered[payload_name(m.payload)];
  }

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
    const Runtime* keep = rt;
    *this = Counter{};
    rt = keep;
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
    count.rt = &sim;
    sim.set_observer(&count);
    sim.run_until_idle();  // replica boot: joins, no appends
    count.reset();
  }

  void write(std::vector<std::pair<ObjectId, Value>> writes) {
    bool done = false;
    invoke_write(sim, sys->writer(0), std::move(writes), [&](const TxnResult&) { done = true; });
    sim.run_until_idle();
    ASSERT_TRUE(done);
  }
};

/// A replication batch's record kinds, in log order.
std::vector<int> kinds(const ReplAppendReq& batch) {
  std::vector<int> out;
  for (const ReplRecord& r : batch.records) out.push_back(r.kind);
  return out;
}

/// The protocols whose writer is CoorWriter, with finalize on (occ-reads
/// keeps every version unless asked).
const BuildOptions kGc = BuildOptions{}.set("gc_versions", true);

TEST(WriteFanOut, SameShardWriteSendsOneWriteValOneAckOneFinalize) {
  for (const char* protocol : {"algo-b", "algo-c", "adaptive", "occ-reads"}) {
    SCOPED_TRACE(protocol);
    Rig rig(protocol, 2, kGc);
    // Both objects on shard 1, which is not the coordinator's: 3S + 3.
    rig.write({{3, 30}, {2, 20}});
    EXPECT_EQ(rig.count.total(), 6);
    EXPECT_EQ(rig.count["write-val"], 1);
    EXPECT_EQ(rig.count["write-val-ack"], 1);
    EXPECT_EQ(rig.count["update-coor"], 1);
    EXPECT_EQ(rig.count["update-coor-ack"], 1);
    EXPECT_EQ(rig.count["finalize"], 1);
    EXPECT_EQ(rig.count["finalize-coor"], 1);
    ASSERT_EQ(rig.count.finalizes.size(), 1u);
    EXPECT_EQ(rig.count.finalizes[0].first, 1u);
    EXPECT_EQ(rig.count.finalizes[0].second.objs, (std::vector<ObjectId>{2, 3}));
    EXPECT_FALSE(rig.count.finalizes[0].second.coor);
  }
}

TEST(WriteFanOut, TouchingTheCoordinatorShardSendsNoFinalizeCoor) {
  // s*'s write-val carries the update-coor and s* stores its own share in
  // the listing step, so it relays no ack to itself: 3S frames.
  for (const char* protocol : {"algo-b", "algo-c", "adaptive", "occ-reads"}) {
    SCOPED_TRACE(protocol);
    Rig rig(protocol, 2, kGc);
    rig.write({{0, 10}, {1, 11}});  // both on the coordinator's shard
    EXPECT_EQ(rig.count["write-val"], 1);
    EXPECT_EQ(rig.count["write-val-ack"], 0);
    EXPECT_EQ(rig.count["update-coor"], 0);
    EXPECT_EQ(rig.count["update-coor-ack"], 1);
    EXPECT_EQ(rig.count["finalize"], 1);
    EXPECT_EQ(rig.count["finalize-coor"], 0);
    EXPECT_EQ(rig.count.total(), 3);
    rig.count.reset();
    rig.write({{1, 21}, {2, 22}});  // one object on each shard
    EXPECT_EQ(rig.count["write-val"], 2);
    EXPECT_EQ(rig.count["write-val-ack"], 1);
    EXPECT_EQ(rig.count["update-coor"], 0);
    EXPECT_EQ(rig.count["finalize"], 2);
    EXPECT_EQ(rig.count["finalize-coor"], 0);
    EXPECT_EQ(rig.count.total(), 6);
    for (const auto& [to, fin] : rig.count.finalizes) {
      EXPECT_EQ(fin.coor, to == 0u) << "only the coordinator's shard carries the notice";
    }
  }
}

TEST(WriteFanOut, FoldedFinalizeCoorStillAdvancesTheWatermark) {
  // The coordinator learns the WRITE completed from the folded flag alone:
  // the next READ's tag array carries watermark 1.
  Rig rig("algo-b");
  rig.write({{0, 10}, {1, 11}});
  ASSERT_EQ(rig.count["finalize-coor"], 0);
  bool done = false;
  invoke_read(rig.sim, rig.sys->reader(0), {0, 3}, [&](const TxnResult& r) {
    done = true;
    EXPECT_EQ(r.values, (std::vector<std::pair<ObjectId, Value>>{{0, 10}, {3, 0}}));
  });
  rig.sim.run_until_idle();
  ASSERT_TRUE(done);
  ASSERT_EQ(rig.count.tag_arr_watermarks.size(), 1u);
  EXPECT_EQ(rig.count.tag_arr_watermarks[0], 1u);
}

TEST(WriteFanOut, ReplicatedHandlerStepsSendOneAppendEach) {
  for (const char* protocol : {"algo-b", "algo-c", "adaptive"}) {
    SCOPED_TRACE(protocol);
    Rig rig(protocol, 2, BuildOptions{}.set("replicas", 2));
    // Same-shard WRITE on the coordinator's shard: the folded write-val
    // (inserts and List push in one listing step) and the finalize are two
    // handler steps on node 0, so two batches.  No WRITE follows, so the
    // finalize's batch goes alone after the linger.
    rig.write({{1, 11}, {0, 10}});
    ASSERT_EQ(rig.count.appends.size(), 2u);
    for (const auto& [from, batch] : rig.count.appends) EXPECT_EQ(from, 0u);
    EXPECT_EQ(kinds(rig.count.appends[0].second),
              (std::vector<int>{ReplRecord::kInsert, ReplRecord::kInsert,
                                ReplRecord::kListPush}));
    EXPECT_EQ(kinds(rig.count.appends[1].second),
              (std::vector<int>{ReplRecord::kFinalize, ReplRecord::kFinalize,
                                ReplRecord::kCoorFinalize}));
    // Consecutive batches: each starts where the previous one ended.
    EXPECT_EQ(rig.count.appends[1].second.first_seq, 3u);
    // The backup acks each batch once.
    EXPECT_EQ(rig.count["repl-append-ack"], 2);
    rig.count.reset();
    // Spanning both shards: shard 1 logs its write-val and, after the
    // linger, its finalize; s* its listing step and its finalize.
    rig.write({{2, 22}, {1, 21}});
    EXPECT_EQ(rig.count.appends.size(), 4u);
    int from_shard1 = 0;
    for (const auto& [from, batch] : rig.count.appends) from_shard1 += from == 1u ? 1 : 0;
    EXPECT_EQ(from_shard1, 2);
  }
}

TEST(WriteFanOut, ReplicatedFinalizesRideTheNextAckedBatch) {
  for (const char* protocol : {"algo-b", "algo-c", "adaptive"}) {
    SCOPED_TRACE(protocol);
    Rig rig(protocol, 2, BuildOptions{}.set("replicas", 2));
    // WRITE 1 on the coordinator's shard, stopped as its finalize lands.
    bool done = false;
    invoke_write(rig.sim, rig.sys->writer(0), {{0, 10}, {1, 11}},
                 [&](const TxnResult&) { done = true; });
    ASSERT_TRUE(rig.sim.run_until([&] { return rig.count.delivered["finalize"] == 1; }));
    ASSERT_TRUE(done);
    ASSERT_EQ(rig.count.appends.size(), 1u) << "the finalize shipped without a waiter";
    // WRITE 2 to the same shard inside the linger: its listing step's batch
    // carries WRITE 1's finalize first, under one first_seq and one ack.
    done = false;
    invoke_write(rig.sim, rig.sys->writer(0), {{0, 20}, {1, 21}},
                 [&](const TxnResult&) { done = true; });
    ASSERT_TRUE(rig.sim.run_until([&] { return rig.count.delivered["finalize"] == 2; }));
    ASSERT_TRUE(done);
    const TimeNs landed = rig.sim.now_ns();
    rig.sim.run_until_idle();
    ASSERT_EQ(rig.count.appends.size(), 3u);
    for (const auto& [from, batch] : rig.count.appends) EXPECT_EQ(from, 0u);
    const ReplAppendReq& combined = rig.count.appends[1].second;
    EXPECT_EQ(kinds(combined),
              (std::vector<int>{ReplRecord::kFinalize, ReplRecord::kFinalize,
                                ReplRecord::kCoorFinalize, ReplRecord::kInsert,
                                ReplRecord::kInsert, ReplRecord::kListPush}));
    EXPECT_EQ(combined.first_seq, 3u);  // after WRITE 1's inserts and push
    EXPECT_EQ(rig.count["repl-append-ack"], 3);
    // WRITE 2's own finalize: nothing follows it, so it ships alone, once,
    // exactly the linger after it landed.
    const ReplAppendReq& lone = rig.count.appends[2].second;
    EXPECT_EQ(kinds(lone), (std::vector<int>{ReplRecord::kFinalize, ReplRecord::kFinalize,
                                             ReplRecord::kCoorFinalize}));
    EXPECT_EQ(lone.first_seq, 9u);
    EXPECT_EQ(rig.count.append_times[2], landed + kFinalizeLinger);
  }
}

TEST(WriteFanOut, OneServerPerObjectKeepsThePaperFanOut) {
  // The paper's model: every object is its own server, so the fan-out is
  // per object as in Pseudocode 5, with each ack relayed to s*.  When the
  // WRITE touches the coordinator (object 0's server) the update-coor rides
  // its write-val, s* relays no ack to itself and the finalize-coor rides
  // its finalize.
  for (const char* protocol : {"algo-b", "algo-c", "adaptive"}) {
    SCOPED_TRACE(protocol);
    Rig rig(protocol, /*servers=*/0);
    rig.write({{1, 11}, {2, 12}});
    EXPECT_EQ(rig.count["write-val"], 2);
    EXPECT_EQ(rig.count["write-val-ack"], 2);
    EXPECT_EQ(rig.count["update-coor"], 1);
    EXPECT_EQ(rig.count["update-coor-ack"], 1);
    EXPECT_EQ(rig.count["finalize"], 2);
    EXPECT_EQ(rig.count["finalize-coor"], 1);
    rig.count.reset();
    rig.write({{0, 20}, {3, 23}});
    EXPECT_EQ(rig.count["write-val"], 2);
    EXPECT_EQ(rig.count["write-val-ack"], 1);
    EXPECT_EQ(rig.count["update-coor"], 0);
    EXPECT_EQ(rig.count["update-coor-ack"], 1);
    EXPECT_EQ(rig.count["finalize"], 2);
    EXPECT_EQ(rig.count["finalize-coor"], 0);  // folded into object 0's finalize
  }
}

/// How long a WRITE of `writes` takes on a fixed-delay simulator, in hops.
TimeNs write_hops(const std::string& protocol, std::size_t replicas,
                  std::vector<std::pair<ObjectId, Value>> writes) {
  const TimeNs hop = 1000;
  SimRuntime sim(make_fixed_delay(hop));
  HistoryRecorder rec(4);
  SystemConfig cfg{4, 1, 1};
  cfg.num_servers = 2;
  cfg.placement = PlacementKind::kRange;
  BuildOptions opts;
  if (replicas == 2) opts.set("replicas", std::int64_t{2});
  auto sys = ProtocolRegistry::global().build(protocol, sim, rec, cfg, opts);
  sim.run_until_idle();  // replica boot
  const TimeNs start = sim.now_ns();
  TimeNs done = 0;
  invoke_write(sim, sys->writer(0), std::move(writes),
               [&](const TxnResult&) { done = sim.now_ns(); });
  sim.run_until_idle();
  EXPECT_NE(done, 0) << "the WRITE did not complete";
  return (done - start) / hop;
}

TEST(WriteFanOut, AWriteCompletesThreeHopsAfterItBegins) {
  // write-val, the ack relayed to s*, update-coor-ack: 3 hops, where the
  // writer's own round trips to every server and then to s* took 4.  With
  // backups each server's insert and s*'s listing add one replication round
  // trip: 7 hops, not 8.  A WRITE of s*'s shard alone is listed as its
  // write-val lands: 2 hops, 4 with backups.
  for (const char* protocol : {"algo-b", "algo-c", "adaptive", "occ-reads"}) {
    SCOPED_TRACE(protocol);
    EXPECT_EQ(write_hops(protocol, 1, {{1, 11}, {2, 12}}), 3);
    EXPECT_EQ(write_hops(protocol, 1, {{2, 12}, {3, 13}}), 3);
    EXPECT_EQ(write_hops(protocol, 1, {{0, 10}, {1, 11}}), 2);
    if (std::string(protocol) == "occ-reads") continue;  // unreplicable
    EXPECT_EQ(write_hops(protocol, 2, {{1, 11}, {2, 12}}), 7);
    EXPECT_EQ(write_hops(protocol, 2, {{2, 12}, {3, 13}}), 7);
    EXPECT_EQ(write_hops(protocol, 2, {{0, 10}, {1, 11}}), 4);
  }
}

TEST(WriteFanOut, AlgoAWriterSendsOneWriteValPerServer) {
  Rig rig("algo-a");
  rig.write({{0, 1}, {1, 2}, {3, 4}});
  EXPECT_EQ(rig.count["write-val"], 2);
  EXPECT_EQ(rig.count["write-val-ack"], 2);
  EXPECT_EQ(rig.count["info-reader"], 1);
}

}  // namespace
}  // namespace snowkit

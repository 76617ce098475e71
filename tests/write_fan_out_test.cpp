// The WRITE path sends one frame per server per step, not one per object:
// a server hosting several objects of a WRITE gets one write-val, answers
// one ack and gets one finalize; the coordinator's shard's finalize carries
// the finalize-coor notice; and each replicated handler step someone waits
// on ships exactly one ReplAppendReq, carrying any finalize the shard
// applied before it, while a finalize with no such step after it ships
// alone once it has waited kFinalizeLinger.  Counted by payload on the
// simulator.
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
    // Both objects on shard 1, which is not the coordinator's.
    rig.write({{3, 30}, {2, 20}});
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
  for (const char* protocol : {"algo-b", "algo-c", "adaptive", "occ-reads"}) {
    SCOPED_TRACE(protocol);
    Rig rig(protocol, 2, kGc);
    rig.write({{0, 10}, {1, 11}});  // both on the coordinator's shard
    EXPECT_EQ(rig.count["write-val"], 1);
    EXPECT_EQ(rig.count["write-val-ack"], 1);
    EXPECT_EQ(rig.count["finalize"], 1);
    EXPECT_EQ(rig.count["finalize-coor"], 0);
    rig.count.reset();
    rig.write({{1, 21}, {2, 22}});  // one object on each shard
    EXPECT_EQ(rig.count["write-val"], 2);
    EXPECT_EQ(rig.count["write-val-ack"], 2);
    EXPECT_EQ(rig.count["finalize"], 2);
    EXPECT_EQ(rig.count["finalize-coor"], 0);
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
    // Same-shard WRITE on the coordinator's shard: write-val, update-coor and
    // finalize are three handler steps on node 0, so three batches.  No
    // WRITE follows, so the finalize's batch goes alone after the linger.
    rig.write({{1, 11}, {0, 10}});
    ASSERT_EQ(rig.count.appends.size(), 3u);
    for (const auto& [from, batch] : rig.count.appends) EXPECT_EQ(from, 0u);
    EXPECT_EQ(kinds(rig.count.appends[0].second),
              (std::vector<int>{ReplRecord::kInsert, ReplRecord::kInsert}));
    EXPECT_EQ(kinds(rig.count.appends[1].second), (std::vector<int>{ReplRecord::kListPush}));
    EXPECT_EQ(kinds(rig.count.appends[2].second),
              (std::vector<int>{ReplRecord::kFinalize, ReplRecord::kFinalize,
                                ReplRecord::kCoorFinalize}));
    // Consecutive batches: each starts where the previous one ended.
    EXPECT_EQ(rig.count.appends[1].second.first_seq, 2u);
    EXPECT_EQ(rig.count.appends[2].second.first_seq, 3u);
    // The backup acks each batch once.
    EXPECT_EQ(rig.count["repl-append-ack"], 3);
    rig.count.reset();
    // Spanning both shards: shard 1 logs its write-val and, after the
    // linger, its finalize.
    rig.write({{2, 22}, {1, 21}});
    EXPECT_EQ(rig.count.appends.size(), 5u);
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
    ASSERT_EQ(rig.count.appends.size(), 2u) << "the finalize shipped without a waiter";
    // WRITE 2 to the same shard inside the linger: its write-val's batch
    // carries WRITE 1's finalize first, under one first_seq and one ack.
    done = false;
    invoke_write(rig.sim, rig.sys->writer(0), {{0, 20}, {1, 21}},
                 [&](const TxnResult&) { done = true; });
    ASSERT_TRUE(rig.sim.run_until([&] { return rig.count.delivered["finalize"] == 2; }));
    ASSERT_TRUE(done);
    const TimeNs landed = rig.sim.now_ns();
    rig.sim.run_until_idle();
    ASSERT_EQ(rig.count.appends.size(), 5u);
    for (const auto& [from, batch] : rig.count.appends) EXPECT_EQ(from, 0u);
    const ReplAppendReq& combined = rig.count.appends[2].second;
    EXPECT_EQ(kinds(combined),
              (std::vector<int>{ReplRecord::kFinalize, ReplRecord::kFinalize,
                                ReplRecord::kCoorFinalize, ReplRecord::kInsert,
                                ReplRecord::kInsert}));
    EXPECT_EQ(combined.first_seq, 3u);                     // after WRITE 1's inserts and push
    EXPECT_EQ(rig.count.appends[3].second.first_seq, 8u);  // WRITE 2's push
    EXPECT_EQ(rig.count["repl-append-ack"], 5);
    // WRITE 2's own finalize: nothing follows it, so it ships alone, once,
    // exactly the linger after it landed.
    const ReplAppendReq& lone = rig.count.appends[4].second;
    EXPECT_EQ(kinds(lone), (std::vector<int>{ReplRecord::kFinalize, ReplRecord::kFinalize,
                                             ReplRecord::kCoorFinalize}));
    EXPECT_EQ(lone.first_seq, 9u);
    EXPECT_EQ(rig.count.append_times[4], landed + kFinalizeLinger);
  }
}

TEST(WriteFanOut, OneServerPerObjectKeepsThePaperFanOut) {
  // The paper's model: every object is its own server, so the fan-out is
  // per object as in Pseudocode 5.  Only the finalize-coor folds away when
  // the WRITE touches the coordinator (object 0's server).
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
    EXPECT_EQ(rig.count["write-val-ack"], 2);
    EXPECT_EQ(rig.count["update-coor"], 1);
    EXPECT_EQ(rig.count["update-coor-ack"], 1);
    EXPECT_EQ(rig.count["finalize"], 2);
    EXPECT_EQ(rig.count["finalize-coor"], 0);  // folded into object 0's finalize
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

// A WRITE's servers relay their write-val acks to the coordinator s*, which
// lists the WRITE exactly when every object of W is confirmed stored
// (proto/pending_listings.hpp).  Held on the simulator: a held write-val
// keeps the tag array on the old key (the paper's rule that List only names
// stored versions); an ack that overtakes its update-coor is buffered; a
// duplicate ack changes nothing.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "checker/tag_order.hpp"
#include "core/registry.hpp"
#include "core/system.hpp"
#include "sim/script.hpp"
#include "sim/sim_runtime.hpp"

namespace snowkit {
namespace {

/// Records every message a server sends it.
class Probe final : public Node {
 public:
  void on_message(NodeId, const Message& m) override { got.push_back(m.payload); }
  std::vector<Payload> got;
};

/// The tag array a folded read-vals-batch-resp carries, as (obj, latest).
struct TagArrWatch final : MessageObserver {
  std::vector<std::vector<std::pair<ObjectId, WriteKey>>> latest;
  void on_send(NodeId, NodeId, const Message& m, std::size_t) override {
    const auto* rv = std::get_if<ReadValsBatchResp>(&m.payload);
    if (rv == nullptr || !rv->tag_arr) return;
    auto& out = latest.emplace_back();
    std::visit([&](const auto& ta) {
      for (const TagArrEntry& e : ta.entries) out.emplace_back(e.obj, e.latest);
    }, *rv->tag_arr);
  }
  void on_deliver(NodeId, NodeId, const Message&) override {}
};

TEST(WriteRelay, AHeldWriteValKeepsTheTagArrayOnTheOldLatest) {
  // 4 objects on 2 servers under range placement, s* = server 0.  The
  // WRITE's write-val to server 1 is held: s* has the update-coor and its
  // own share, but not server 1's ack, so it must not list the WRITE — a
  // READ meanwhile names the initial key and returns the initial values.
  for (const char* protocol : {"algo-b", "algo-c", "adaptive"}) {
    SCOPED_TRACE(protocol);
    SimRuntime sim(make_uniform_delay(10, 5000, 5));
    HistoryRecorder rec(4);
    SystemConfig cfg{4, 1, 1};
    cfg.num_servers = 2;
    cfg.placement = PlacementKind::kRange;
    auto sys = ProtocolRegistry::global().build(protocol, sim, rec, cfg, {});
    TagArrWatch watch;
    sim.set_observer(&watch);
    const script::Pred held =
        script::all_of({script::payload_is("write-val"), script::to_node(1)});
    sim.hold_matching(held);
    bool w_done = false;
    invoke_write(sim, sys->writer(0), {{1, 11}, {2, 22}}, [&](const TxnResult&) { w_done = true; });
    sim.run_until_idle();
    ASSERT_FALSE(w_done);
    ASSERT_EQ(sim.held().size(), 1u);

    const auto read = [&] {
      TxnResult result;
      invoke_read(sim, sys->reader(0), {1, 2}, [&](const TxnResult& r) { result = r; });
      sim.run_until_idle();
      return result.values;
    };
    EXPECT_EQ(read(), (std::vector<std::pair<ObjectId, Value>>{{1, 0}, {2, 0}}));
    ASSERT_FALSE(watch.latest.empty());
    EXPECT_EQ(watch.latest.back(), (std::vector<std::pair<ObjectId, WriteKey>>{
                                       {1, kInitialKey}, {2, kInitialKey}}));

    sim.hold_matching(nullptr);
    ASSERT_EQ(sim.release_if(held), 1u);
    sim.run_until_idle();
    ASSERT_TRUE(w_done);
    EXPECT_EQ(read(), (std::vector<std::pair<ObjectId, Value>>{{1, 11}, {2, 22}}));
    const WriteKey key = watch.latest.back().at(0).second;
    EXPECT_NE(key, kInitialKey);
    EXPECT_EQ(watch.latest.back(), (std::vector<std::pair<ObjectId, WriteKey>>{{1, key}, {2, key}}));
    const auto verdict = check_tag_order(rec.snapshot());
    EXPECT_TRUE(verdict.ok) << verdict.explanation;
    sim.set_observer(nullptr);
  }
}

TEST(WriteRelay, AnAckBeforeItsUpdateCoorIsBufferedAndADuplicateIsIgnored) {
  // A probe plays a writer and its servers against s* (node 0).  Acks for
  // objects 1 and 2 of W = {1, 2} arrive around the update-coor, one of
  // them twice: s* lists the WRITE once, when the last object is
  // confirmed, and answers the probe once.
  for (const std::size_t replicas : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE("replicas " + std::to_string(replicas));
    SimRuntime sim(make_uniform_delay(10, 4000, 3));
    HistoryRecorder rec(3);
    BuildOptions opts;
    if (replicas == 2) opts.set("replicas", std::int64_t{2});
    auto sys = build_protocol("algo-b", sim, rec, SystemConfig{3, 1, 1}, opts);
    auto probe_node = std::make_unique<Probe>();
    Probe& probe = *probe_node;
    const NodeId prober = sim.add_node(std::move(probe_node));
    sim.run_until_idle();  // replica boot
    const auto send = [&](Message m) {
      sim.post(prober, [&sim, prober, m] { sim.send(prober, 0, m); });
      sim.run_until_idle();
    };
    const auto coor_acks = [&] {
      std::vector<UpdateCoorAck> out;
      for (const Payload& p : probe.got) {
        if (const auto* ack = std::get_if<UpdateCoorAck>(&p)) out.push_back(*ack);
      }
      return out;
    };
    const WriteKey key{1, prober};
    send(Message{7, WriteValAck{key, {1}}});  // ahead of its update-coor: buffered
    send(Message{7, WriteValAck{key, {1}}});  // a duplicate
    send(Message{7, UpdateCoorReq{key, {1, 2}}});
    EXPECT_TRUE(coor_acks().empty()) << "listed before object 2 was confirmed stored";
    send(Message{7, WriteValAck{key, {2}}});
    ASSERT_EQ(coor_acks().size(), 1u);
    EXPECT_EQ(coor_acks()[0].tag, 1u);
    send(Message{7, WriteValAck{key, {2}}});  // a duplicate of a listed WRITE
    send(Message{7, WriteValAck{key, {1}}});
    EXPECT_EQ(coor_acks().size(), 1u);
    // The List holds the WRITE once: the next one lands at position 2.
    const WriteKey next{2, prober};
    send(Message{8, UpdateCoorReq{next, {2}}});
    send(Message{8, WriteValAck{next, {2}}});
    ASSERT_EQ(coor_acks().size(), 2u);
    EXPECT_EQ(coor_acks()[1].tag, 2u);
  }
}

}  // namespace
}  // namespace snowkit

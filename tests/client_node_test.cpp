// Every protocol's reader and writer drops any reply it cannot use — one
// sent while no transaction is in flight, one naming another transaction,
// one of another protocol's types — with a warning instead of aborting: the
// ReadClient / WriteClient bases' on_message.  Sent on the simulator from a
// probe node, then a real workload must still complete (and, for the tagged
// protocols, pass the tag-order check).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "checker/tag_order.hpp"
#include "core/registry.hpp"
#include "core/run_workload.hpp"
#include "core/system.hpp"
#include "sim/sim_runtime.hpp"

namespace snowkit {
namespace {

class Probe final : public Node {
 public:
  void on_message(NodeId, const Message&) override {}
};

const WriteKey kAbsent{99, 99};

/// One of every reply type any client consumes, two read requests only
/// servers serve, and a TakeoverNotice that advances no route, all naming
/// `txn`.
std::vector<Message> replies(TxnId txn) {
  const ObjectId obj = 1;
  std::vector<Payload> payloads{
      ReadValBatchReq{0, {{obj, kAbsent}}},
      ReadValsBatchReq{0, {obj}},
      GetTagArrResp{5, 0, {}},
      AdaptTagArrResp{},
      ReadValBatchResp{{{obj, kAbsent, 7, false}}},
      ReadValsBatchResp{{{obj, {Version{kAbsent, 7}}}}},
      WriteValAck{kAbsent, {obj}},
      UpdateCoorAck{5, 0},
      InfoReaderAck{5},
      EigerReadResp{obj, 7, 1, 1, 1},
      EigerReadAtResp{obj, 7, 1},
      EigerWriteAck{obj, 1, 1},
      LockGrant{obj, 7},
      UnlockAck{obj},
      SimpleReadResp{obj, 7},
      SimpleWriteAck{obj},
      TakeoverNotice{0, 0, 0},
  };
  std::vector<Message> out;
  for (Payload& p : payloads) out.push_back(Message{txn, std::move(p)});
  return out;
}

struct Case {
  const char* protocol;
  std::size_t replicas;
};

TEST(ClientNodes, ForeignAndStaleRepliesDoNotAbortAnyClient) {
  for (const Case c : {Case{"algo-a", 1}, Case{"algo-b", 1}, Case{"algo-b", 2},
                       Case{"algo-c", 1}, Case{"adaptive", 1}, Case{"occ-reads", 1},
                       Case{"eiger", 1}, Case{"blocking-2pl", 1}, Case{"simple", 1},
                       Case{"naive", 1}}) {
    SCOPED_TRACE(std::string(c.protocol) + " replicas " + std::to_string(c.replicas));
    SimRuntime sim(make_uniform_delay(10, 4000, 5));
    HistoryRecorder rec(3);
    BuildOptions opts;
    if (c.replicas == 2) opts.set("replicas", std::int64_t{2});
    auto sys = build_protocol(c.protocol, sim, rec, SystemConfig{3, 1, 2}, opts);
    const NodeId prober = sim.add_node(std::make_unique<Probe>());
    sim.run_until_idle();  // replica boot

    const std::vector<NodeId> clients{sys->reader(0).node_id(), sys->writer(0).node_id(),
                                      sys->writer(1).node_id()};
    const auto barrage = [&](TxnId txn) {
      for (NodeId client : clients) {
        for (const Message& m : replies(txn)) {
          sim.post(prober, [&sim, prober, client, m] { sim.send(prober, client, m); });
        }
      }
      sim.run_until_idle();
    };

    // Nothing in flight.
    barrage(1);

    // A READ and two WRITEs in flight (their requests held), then replies
    // naming a newer and an older transaction.
    sim.hold_matching([&](NodeId from, NodeId, const Message&) {
      return std::find(clients.begin(), clients.end(), from) != clients.end();
    });
    int done = 0;
    invoke_read(sim, sys->reader(0), {0, 2}, [&](const TxnResult&) { ++done; });
    invoke_write(sim, sys->writer(0), {{0, 5}, {1, 6}}, [&](const TxnResult&) { ++done; });
    invoke_write(sim, sys->writer(1), {{2, 7}}, [&](const TxnResult&) { ++done; });
    sim.run_until_idle();
    ASSERT_FALSE(sim.held().empty());
    barrage(1000);
    barrage(0);
    sim.hold_matching(nullptr);
    sim.release_all();
    sim.run_until_idle();
    EXPECT_EQ(done, 3);

    WorkloadSpec spec;
    spec.ops_per_reader = 10;
    spec.ops_per_writer = 6;
    spec.read_span = 2;
    spec.write_span = 2;
    spec.seed = 9;
    WorkloadDriver driver(sim, *sys, spec);
    driver.start();
    sim.run_until_idle();
    ASSERT_TRUE(driver.done());
    const History h = rec.snapshot();
    EXPECT_EQ(h.completed_reads(), 11u);
    EXPECT_EQ(h.completed_writes(), 14u);
    if (ProtocolRegistry::global().traits(c.protocol).provides_tags) {
      const auto verdict = check_tag_order(h);
      EXPECT_TRUE(verdict.ok) << verdict.explanation;
    }
  }
}

}  // namespace
}  // namespace snowkit

// The servers outside the version-server family — eiger's, blocking-2pl's
// lock server and the parallel server behind simple and naive — drop with a
// warning every payload they do not serve, and the lock server drops an
// unlock for a lock nobody holds: any registry protocol runs under
// snowkit_server, so nothing a network peer sends may abort one.  Sent on
// the simulator from a probe node, then a real workload must still pass.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "checker/serializability.hpp"
#include "core/registry.hpp"
#include "core/run_workload.hpp"
#include "core/system.hpp"
#include "sim/sim_runtime.hpp"

namespace snowkit {
namespace {

/// Records every reply a server sends it.
class Probe final : public Node {
 public:
  void on_message(NodeId from, const Message& m) override { got[from].push_back(m.payload); }
  std::map<NodeId, std::vector<Payload>> got;
};

/// Payloads none of these servers answers: replies, version-server
/// requests, each other's requests, and unlocks for locks nobody holds.
std::vector<Message> hostile_messages(const std::string& protocol, ObjectId obj) {
  std::vector<Message> out{
      Message{1, UpdateCoorAck{1, 0}},
      Message{1, WriteValReq{WriteKey{1, 98}, {{obj, 5}}}},
      Message{1, ReadValBatchReq{0, {{obj, kInitialKey}}}},
      Message{1, FinalizeReq{WriteKey{1, 98}, 1, 0, {obj}, true}},
      Message{1, UnlockAck{obj}},
      Message{1, WriteUnlockReq{obj, 5}},
      Message{1, UnlockReq{obj}},
  };
  if (protocol != "eiger") out.push_back(Message{1, EigerReadReq{obj, 1}});
  if (protocol != "simple" && protocol != "naive") out.push_back(Message{1, SimpleReadReq{obj}});
  return out;
}

TEST(ServerHostileInput, ForeignPayloadsAndForgedUnlocksDoNotAbortAnyServer) {
  for (const std::string protocol : {"eiger", "blocking-2pl", "simple", "naive"}) {
    SCOPED_TRACE(protocol);
    SimRuntime sim(make_uniform_delay(10, 4000, 3));
    const std::size_t k = 3;
    HistoryRecorder rec(k);
    auto sys = build_protocol(protocol, sim, rec, SystemConfig{k, 1, 2});
    auto probe_node = std::make_unique<Probe>();
    Probe& probe = *probe_node;
    const NodeId prober = sim.add_node(std::move(probe_node));

    for (NodeId server = 0; server < sys->num_servers(); ++server) {
      for (const Message& m : hostile_messages(protocol, server)) {
        sim.post(prober, [&sim, prober, server, m] { sim.send(prober, server, m); });
      }
    }
    sim.run_until_idle();
    EXPECT_TRUE(probe.got.empty()) << "a server answered a payload it does not serve";

    WorkloadSpec spec;
    spec.ops_per_reader = 10;
    spec.ops_per_writer = 6;
    spec.read_span = 2;
    spec.write_span = 2;
    spec.seed = 11;
    WorkloadDriver driver(sim, *sys, spec);
    driver.start();
    sim.run_until_idle();
    ASSERT_TRUE(driver.done());
    const History h = rec.snapshot();
    EXPECT_EQ(h.completed_reads(), 10u);
    EXPECT_EQ(h.completed_writes(), 12u);
    // No forged value reached a store; blocking-2pl keeps its full claim.
    EXPECT_EQ(find_unwritten_value(h), "");
    if (protocol == "blocking-2pl") {
      const auto verdict = check_strict_serializability(h);
      EXPECT_TRUE(verdict.ok) << verdict.explanation;
    }
  }
}

}  // namespace
}  // namespace snowkit

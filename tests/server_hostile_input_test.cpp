// The servers outside the version-server family — eiger's, blocking-2pl's
// lock server and the parallel server behind simple and naive — drop with a
// warning every payload they do not serve, and the lock server drops an
// unlock for a lock nobody holds: any registry protocol runs under
// snowkit_server, so nothing a network peer sends may abort one.  Sent on
// the simulator from a probe node, then a real workload must still pass.
// The lock server also records who holds each lock, so an unlock forged
// while another client holds it releases nothing.
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

/// Lock grants `probe` has received.
std::size_t grants(const Probe& probe) {
  std::size_t n = 0;
  for (const auto& [from, payloads] : probe.got) {
    for (const Payload& p : payloads) n += std::holds_alternative<LockGrant>(p) ? 1 : 0;
  }
  return n;
}

TEST(ServerHostileInput, ForgedUnlockDoesNotReleaseAHeldLock) {
  // Holder takes object 0's lock, waiter queues a conflicting request, and a
  // forger (a third node, naming the holder's txn) and the waiter itself
  // send unlocks.  The waiter must get no grant until the holder releases.
  for (const bool exclusive_holder : {true, false}) {
    SCOPED_TRACE(exclusive_holder ? "exclusive holder" : "shared holder");
    SimRuntime sim(make_uniform_delay(10, 4000, 3));
    HistoryRecorder rec(1);
    auto sys = build_protocol("blocking-2pl", sim, rec, SystemConfig{1, 1, 1});
    auto add_probe = [&sim] {
      auto node = std::make_unique<Probe>();
      Probe& ref = *node;
      return std::pair<NodeId, Probe*>{sim.add_node(std::move(node)), &ref};
    };
    const auto [holder, holder_probe] = add_probe();
    const auto [waiter, waiter_probe] = add_probe();
    const auto [forger, forger_probe] = add_probe();
    const NodeId server = 0;
    const ObjectId obj = 0;
    const TxnId held_txn = 901;
    const TxnId waiting_txn = 902;
    auto send = [&sim, server](NodeId from, Message m) {
      sim.post(from, [&sim, from, server, m] { sim.send(from, server, m); });
      sim.run_until_idle();
    };
    auto unlock = [&](TxnId txn) {
      return exclusive_holder ? Message{txn, WriteUnlockReq{obj, 77}}
                              : Message{txn, UnlockReq{obj}};
    };

    send(holder, Message{held_txn, LockReq{obj, exclusive_holder}});
    ASSERT_EQ(grants(*holder_probe), 1u);
    send(waiter, Message{waiting_txn, LockReq{obj, /*exclusive=*/true}});
    ASSERT_EQ(grants(*waiter_probe), 0u);

    send(forger, unlock(held_txn));
    send(waiter, unlock(held_txn));
    send(waiter, unlock(waiting_txn));
    EXPECT_EQ(grants(*waiter_probe), 0u)
        << "a forged unlock released a lock its holder still holds";
    EXPECT_TRUE(forger_probe->got.empty()) << "the forger's unlock was acknowledged";

    send(holder, unlock(held_txn));
    EXPECT_EQ(grants(*waiter_probe), 1u) << "the holder's unlock released nothing";
  }
}

}  // namespace
}  // namespace snowkit

// The servers outside the version-server family — eiger's, blocking-2pl's
// lock server and the parallel server behind simple and naive — drop with a
// warning every payload they do not serve, and the lock server drops an
// unlock for a lock nobody holds: any registry protocol runs under
// snowkit_server, so nothing a network peer sends may abort one.  The
// version servers' coordinator drops the relayed write-val acks it cannot
// place.  Sent on
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

TEST(ServerHostileInput, RelayedAcksTheCoordinatorCannotPlaceAreDropped) {
  // s* lists a WRITE when every object of its W is confirmed stored, by
  // acks its servers relay.  An ack naming an object outside W, an older
  // key of the writer, a key newer than the WRITE awaiting listing, or no
  // WRITE's key at all is dropped with a warning: none may list the WRITE,
  // and the real acks still do.  A probe plays the writer (its WRITEs
  // store the initial value, so the workload after them stays checkable)
  // and forges the acks.
  for (const std::size_t replicas : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE("replicas " + std::to_string(replicas));
    SimRuntime sim(make_uniform_delay(10, 4000, 3));
    const std::size_t k = 3;
    HistoryRecorder rec(k);
    BuildOptions opts;
    if (replicas == 2) opts.set("replicas", std::int64_t{2});
    auto sys = build_protocol("algo-b", sim, rec, SystemConfig{k, 1, 2}, opts);
    auto probe_node = std::make_unique<Probe>();
    Probe& probe = *probe_node;
    const NodeId prober = sim.add_node(std::move(probe_node));
    sim.run_until_idle();  // replica boot
    const auto send_to = [&](NodeId server, Message m) {
      sim.post(prober, [&sim, prober, server, m] { sim.send(prober, server, m); });
      sim.run_until_idle();
    };
    const auto send = [&](Message m) { send_to(0, std::move(m)); };
    /// A real write-val of `obj`, which its server acks to s* (node 0).
    const auto store = [&](const WriteKey& key, ObjectId obj) {
      send_to(static_cast<NodeId>(obj), Message{1, WriteValReq{key, {{obj, kInitialValue}}, 0}});
    };
    const auto listed = [&] {
      std::size_t n = 0;
      for (const Payload& p : probe.got[0]) n += std::holds_alternative<UpdateCoorAck>(p) ? 1 : 0;
      return n;
    };

    // The probe's WRITE 1 is listed; WRITE 5 awaits its acks.
    send(Message{1, UpdateCoorReq{WriteKey{1, prober}, {1}}});
    store(WriteKey{1, prober}, 1);
    ASSERT_EQ(listed(), 1u);
    const WriteKey key{5, prober};
    send(Message{2, UpdateCoorReq{key, {1, 2}}});
    const std::vector<std::pair<WriteValAck, const char*>> forged{
        {WriteValAck{key, {0, 1, 2}}, "outside the write set"},
        {WriteValAck{WriteKey{3, prober}, {1, 2}}, "newer WRITE pending"},
        {WriteValAck{WriteKey{9, prober}, {1, 2}}, "no WRITE of its writer names that key"},
        {WriteValAck{WriteKey{0, prober}, {1, 2}}, "names no WRITE's key"},
        {WriteValAck{WriteKey{4, kInvalidNode}, {1, 2}}, "names no WRITE's key"},
    };
    for (const auto& [ack, warning] : forged) {
      SCOPED_TRACE(warning);
      testing::internal::CaptureStderr();
      send(Message{2, ack});
      const std::string err = testing::internal::GetCapturedStderr();
      EXPECT_NE(err.find(warning), std::string::npos) << err;
      EXPECT_EQ(listed(), 1u) << "a forged ack listed the WRITE";
    }
    // WRITE 1's ack again is a duplicate: silent, and no second listing.
    testing::internal::CaptureStderr();
    send(Message{2, WriteValAck{WriteKey{1, prober}, {1}}});
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
    store(key, 1);
    EXPECT_EQ(listed(), 1u);
    store(key, 2);
    EXPECT_EQ(listed(), 2u) << "the real acks did not list the WRITE";
    // An older key than the writer's last listed one.
    testing::internal::CaptureStderr();
    send(Message{2, WriteValAck{WriteKey{2, prober}, {1}}});
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("has listed a newer WRITE"), std::string::npos) << err;

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
    const auto verdict = check_strict_serializability(h);
    EXPECT_TRUE(verdict.ok) << verdict.explanation;
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

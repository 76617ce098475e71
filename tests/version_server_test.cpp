// The one version server behind algo-a, algo-b, algo-c, adaptive and
// occ-reads answers every read request any of them sends, names a key it
// does not hold with found == false, and drops with a warning any payload it
// does not serve and any request naming an object id >= k: nothing a peer
// sends may abort a server or grow its state.  Sent on the simulator from a
// probe node, then a real workload must still pass.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "checker/tag_order.hpp"
#include "core/registry.hpp"
#include "core/run_workload.hpp"
#include "core/system.hpp"
#include "metrics/gc_stats.hpp"
#include "sim/sim_runtime.hpp"

namespace snowkit {
namespace {

/// Records every reply a server sends it.
class Probe final : public Node {
 public:
  void on_message(NodeId from, const Message& m) override { got[from].push_back(m.payload); }
  std::map<NodeId, std::vector<Payload>> got;
};

/// A key no WRITE of the workload below ever uses.
const WriteKey kAbsent{99, 99};

/// Both read request types, naming kAbsent where they name a key, and
/// payloads no version server serves: replies, other protocols' requests
/// and a C2C message.
std::vector<Message> hostile_messages(ObjectId obj) {
  return {
      Message{1, ReadValBatchReq{0, {{obj, kAbsent}}}},
      Message{1, ReadValsBatchReq{0, {obj}}},
      Message{1, ReadValBatchResp{{{obj, kAbsent, 7, true}}}},
      Message{1, GetTagArrResp{}},
      Message{1, ReadValsBatchResp{}},
      Message{1, EigerReadReq{obj, 1}},
      Message{1, SimpleReadReq{obj}},
      Message{1, LockReq{obj, true}},
      Message{1, InfoReaderReq{kAbsent, {obj}}},
      Message{1, UpdateCoorAck{1, 0}},
  };
}

struct Case {
  const char* protocol;
  std::size_t replicas;
};

TEST(VersionServer, ForeignPayloadsAndAbsentKeysDoNotAbortAnyServer) {
  for (const Case c : {Case{"algo-a", 1}, Case{"algo-b", 1}, Case{"algo-b", 2},
                       Case{"algo-c", 1}, Case{"adaptive", 1}, Case{"occ-reads", 1}}) {
    SCOPED_TRACE(std::string(c.protocol) + " replicas " + std::to_string(c.replicas));
    SimRuntime sim(make_uniform_delay(10, 4000, 3));
    HistoryRecorder rec(3);
    BuildOptions opts;
    if (c.replicas == 2) opts.set("replicas", std::int64_t{2});
    auto sys = build_protocol(c.protocol, sim, rec, SystemConfig{3, 1, 2}, opts);
    auto probe_node = std::make_unique<Probe>();
    Probe& probe = *probe_node;
    const NodeId prober = sim.add_node(std::move(probe_node));
    sim.run_until_idle();  // replica boot

    for (NodeId server = 0; server < sys->num_servers(); ++server) {
      for (const Message& m : hostile_messages(server)) {
        sim.post(prober, [&sim, prober, server, m] { sim.send(prober, server, m); });
      }
    }
    sim.run_until_idle();

    // The two read requests are answered (in any order: the network
    // reorders), a miss as found == false; every other payload is dropped
    // without a reply.
    for (NodeId server = 0; server < sys->num_servers(); ++server) {
      SCOPED_TRACE("server " + std::to_string(server));
      std::map<std::string, const Payload*> by_name;
      for (const Payload& p : probe.got[server]) by_name[payload_name(p)] = &p;
      ASSERT_EQ(probe.got[server].size(), 2u);
      ASSERT_EQ(by_name.size(), 2u);
      const auto& batch = std::get<ReadValBatchResp>(*by_name.at("read-val-batch-resp"));
      ASSERT_EQ(batch.entries.size(), 1u);
      EXPECT_EQ(batch.entries[0].key, kAbsent);
      EXPECT_FALSE(batch.entries[0].found);
      const auto& vals = std::get<ReadValsBatchResp>(*by_name.at("read-vals-batch-resp"));
      ASSERT_EQ(vals.entries.size(), 1u);
      ASSERT_EQ(vals.entries[0].versions.size(), 1u);
      EXPECT_EQ(vals.entries[0].versions[0].key, kInitialKey);
    }

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
    EXPECT_EQ(h.completed_reads(), 10u);
    EXPECT_EQ(h.completed_writes(), 12u);
    const auto verdict = check_tag_order(h);
    EXPECT_TRUE(verdict.ok) << verdict.explanation;
  }
}

TEST(VersionServer, RequestsNamingObjectsOutsideKAreDropped) {
  // Object ids are untrusted: a read or write request naming an id >= k must
  // neither make a store for it nor be answered, and a finalize naming one
  // must not trip VersionStore::finalize's checks.
  for (const Case c : {Case{"algo-a", 1}, Case{"algo-b", 1}, Case{"algo-b", 2},
                       Case{"algo-c", 1}, Case{"adaptive", 1}, Case{"occ-reads", 1}}) {
    SCOPED_TRACE(std::string(c.protocol) + " replicas " + std::to_string(c.replicas));
    SimRuntime sim(make_uniform_delay(10, 4000, 3));
    const std::size_t k = 3;
    HistoryRecorder rec(k);
    BuildOptions opts;
    if (c.replicas == 2) opts.set("replicas", std::int64_t{2});
    auto sys = build_protocol(c.protocol, sim, rec, SystemConfig{k, 1, 2}, opts);
    auto probe_node = std::make_unique<Probe>();
    Probe& probe = *probe_node;
    const NodeId prober = sim.add_node(std::move(probe_node));
    sim.run_until_idle();  // replica boot

    const std::vector<Message> forged{
        Message{1, ReadValsBatchReq{0, {k}}},
        Message{1, ReadValsBatchReq{0, {0, 4'000'000'000u}}},
        Message{1, ReadValsBatchReq{0, {0}, std::nullopt, {{k + 4, kInitialKey, true}}}},
        Message{1, ReadValBatchReq{0, {{0, kInitialKey}, {k + 1, kInitialKey}}}},
        Message{1, WriteValReq{kAbsent, {{k + 2, 5}}}},
        Message{1, FinalizeReq{kAbsent, 1, 1, {k + 3}, false}},
    };
    const std::uint64_t inserted = GcCounters::global().snapshot().inserted;
    for (NodeId server = 0; server < sys->num_servers(); ++server) {
      for (const Message& m : forged) {
        sim.post(prober, [&sim, prober, server, m] { sim.send(prober, server, m); });
      }
    }
    sim.run_until_idle();
    EXPECT_TRUE(probe.got.empty()) << "a server answered a request naming an id >= k";
    EXPECT_EQ(GcCounters::global().snapshot().inserted, inserted)
        << "a server made a store or a version for an id >= k";

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
    const auto verdict = check_tag_order(h);
    EXPECT_TRUE(verdict.ok) << verdict.explanation;
  }
}

TEST(VersionServer, OnlyTheCoordinatorAnswersAFoldedGetTagArr) {
  // A read-vals-batch carrying a get-tag-arr is answered by every server;
  // the coordinator adds its tag array (ids >= k in I skipped), any other
  // server drops that part with a warning, as it drops a misrouted
  // finalize-coor.
  for (const Case c : {Case{"algo-b", 1}, Case{"algo-b", 2}, Case{"algo-c", 1},
                       Case{"adaptive", 1}}) {
    SCOPED_TRACE(std::string(c.protocol) + " replicas " + std::to_string(c.replicas));
    SimRuntime sim(make_uniform_delay(10, 4000, 3));
    HistoryRecorder rec(3);
    BuildOptions opts;
    if (c.replicas == 2) opts.set("replicas", std::int64_t{2});
    auto sys = build_protocol(c.protocol, sim, rec, SystemConfig{3, 1, 2}, opts);
    auto probe_node = std::make_unique<Probe>();
    Probe& probe = *probe_node;
    const NodeId prober = sim.add_node(std::move(probe_node));
    sim.run_until_idle();  // replica boot

    for (NodeId server = 0; server < sys->num_servers(); ++server) {
      const Message m{1, ReadValsBatchReq{0, {server}, GetTagArrReq{{0, 2, 70'000}, 0}}};
      sim.post(prober, [&sim, prober, server, m] { sim.send(prober, server, m); });
    }
    sim.run_until_idle();

    for (NodeId server = 0; server < sys->num_servers(); ++server) {
      SCOPED_TRACE("server " + std::to_string(server));
      ASSERT_EQ(probe.got[server].size(), 1u);
      const auto& resp = std::get<ReadValsBatchResp>(probe.got[server][0]);
      ASSERT_EQ(resp.entries.size(), 1u);
      EXPECT_EQ(resp.entries[0].obj, server);
      if (server != 0) {
        EXPECT_FALSE(resp.tag_arr.has_value());
        continue;
      }
      ASSERT_TRUE(resp.tag_arr.has_value());
      const std::vector<TagArrEntry>& entries =
          std::visit([](const auto& ta) -> const std::vector<TagArrEntry>& { return ta.entries; },
                     *resp.tag_arr);
      ASSERT_EQ(entries.size(), 2u);
      EXPECT_EQ(entries[0].obj, 0u);
      EXPECT_EQ(entries[1].obj, 2u);
      EXPECT_EQ(std::holds_alternative<AdaptTagArrResp>(*resp.tag_arr),
                std::string(c.protocol) == "adaptive");
    }

    WorkloadSpec spec;
    spec.ops_per_reader = 10;
    spec.ops_per_writer = 6;
    spec.read_span = 2;
    spec.write_span = 2;
    spec.seed = 13;
    WorkloadDriver driver(sim, *sys, spec);
    driver.start();
    sim.run_until_idle();
    ASSERT_TRUE(driver.done());
    const History h = rec.snapshot();
    EXPECT_EQ(h.completed_reads(), 10u);
    const auto verdict = check_tag_order(h);
    EXPECT_TRUE(verdict.ok) << verdict.explanation;
  }
}

TEST(VersionServer, AFoldNamingAKeyTheCoordinatorLacksGetsAnEmptyList) {
  // A forged update-coor and a forged relayed ack list kAbsent for object 0
  // with no write-val behind it.  A folded read-vals-batch then names a latest key s* does
  // not hold: algo-b's and adaptive's s* answer it with an empty list, not
  // an abort; algo-c's ships the live chain as always.
  for (const Case c : {Case{"algo-b", 1}, Case{"algo-b", 2}, Case{"adaptive", 1},
                       Case{"algo-c", 1}}) {
    SCOPED_TRACE(std::string(c.protocol) + " replicas " + std::to_string(c.replicas));
    SimRuntime sim(make_uniform_delay(10, 4000, 3));
    HistoryRecorder rec(3);
    BuildOptions opts;
    if (c.replicas == 2) opts.set("replicas", std::int64_t{2});
    auto sys = build_protocol(c.protocol, sim, rec, SystemConfig{3, 1, 2}, opts);
    auto probe_node = std::make_unique<Probe>();
    Probe& probe = *probe_node;
    const NodeId prober = sim.add_node(std::move(probe_node));
    sim.run_until_idle();  // replica boot

    const auto send = [&](const Message& m) {
      sim.post(prober, [&sim, prober, m] { sim.send(prober, 0, m); });
      sim.run_until_idle();
    };
    send(Message{1, UpdateCoorReq{kAbsent, {0}}});
    send(Message{1, WriteValAck{kAbsent, {0}}});
    send(Message{2, ReadValsBatchReq{0, {0}, GetTagArrReq{{0}, 0}}});
    ASSERT_EQ(probe.got[0].size(), 2u);
    const auto& resp = std::get<ReadValsBatchResp>(probe.got[0][1]);
    ASSERT_TRUE(resp.tag_arr.has_value());
    const std::vector<TagArrEntry>& entries =
        std::visit([](const auto& ta) -> const std::vector<TagArrEntry>& { return ta.entries; },
                   *resp.tag_arr);
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].latest, kAbsent);
    ASSERT_EQ(resp.entries.size(), 1u);
    if (std::string(c.protocol) == "algo-c") {
      ASSERT_EQ(resp.entries[0].versions.size(), 1u);
      EXPECT_EQ(resp.entries[0].versions[0].key, kInitialKey);
    } else {
      EXPECT_TRUE(resp.entries[0].versions.empty());
    }
  }
}

TEST(VersionServer, ForgedFinalizesAreDropped) {
  // A finalize naming a key the store does not hold, or a List position
  // already finalized under another key, would trip VersionStore::finalize's
  // checks; the server drops it before a replicated primary logs it.
  for (const Case c :
       {Case{"algo-b", 1}, Case{"algo-b", 2}, Case{"algo-c", 1}, Case{"adaptive", 1}}) {
    SCOPED_TRACE(std::string(c.protocol) + " replicas " + std::to_string(c.replicas));
    SimRuntime sim(make_uniform_delay(10, 4000, 3));
    const std::size_t k = 3;
    HistoryRecorder rec(k);
    BuildOptions opts;
    if (c.replicas == 2) opts.set("replicas", std::int64_t{2});
    auto sys = build_protocol(c.protocol, sim, rec, SystemConfig{k, 1, 2}, opts);
    auto probe_node = std::make_unique<Probe>();
    const NodeId prober = sim.add_node(std::move(probe_node));
    sim.run_until_idle();  // replica boot

    // Every store holds `forged` unfinalized, and position 0 is finalized
    // under the initial key.
    const WriteKey forged{1, 98};
    const auto send_all = [&](const Message& m) {
      for (NodeId server = 0; server < sys->num_servers(); ++server) {
        sim.post(prober, [&sim, prober, server, m] { sim.send(prober, server, m); });
      }
      sim.run_until_idle();
    };
    for (ObjectId obj = 0; obj < k; ++obj) send_all(Message{1, WriteValReq{forged, {{obj, 5}}}});
    for (ObjectId obj = 0; obj < k; ++obj) {
      send_all(Message{1, FinalizeReq{kAbsent, 1, 0, {obj}, false}});
      send_all(Message{1, FinalizeReq{forged, 0, 0, {obj}, true}});
    }

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
    const auto verdict = check_tag_order(h);
    EXPECT_TRUE(verdict.ok) << verdict.explanation;
  }
}

}  // namespace
}  // namespace snowkit

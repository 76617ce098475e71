// Protocol registry + sharded placement + unified transaction API.
//
// Covers the api_redesign surface: fail-fast registry lookups, SystemConfig
// validation, every registered protocol building by name and passing the
// checkers on a small workload, hash/range sharding (objects > servers)
// round-tripping reads and writes, and the open-loop mixed WorkloadDriver.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "checker/snow_monitor.hpp"
#include "checker/tag_order.hpp"
#include "core/run_workload.hpp"
#include "core/system.hpp"
#include "runtime/thread_runtime.hpp"
#include "sim/sim_runtime.hpp"

namespace snowkit {
namespace {

TEST(Registry, AllSeedProtocolsAreRegistered) {
  const auto names = registered_protocols();
  const std::set<std::string> got(names.begin(), names.end());
  for (const char* expected : {"algo-a", "algo-b", "algo-c", "blocking-2pl", "eiger", "naive",
                               "occ-reads", "simple"}) {
    EXPECT_TRUE(got.count(expected)) << "missing protocol: " << expected;
  }
  EXPECT_GE(names.size(), 8u);
}

TEST(Registry, UnknownNameFailsFastWithRegisteredList) {
  SimRuntime sim;
  HistoryRecorder rec(2);
  try {
    build_protocol("algo-z", sim, rec, SystemConfig{2, 1, 1});
    FAIL() << "unknown protocol must throw";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("algo-z"), std::string::npos) << msg;
    EXPECT_NE(msg.find("algo-b"), std::string::npos)
        << "error must list the registered protocols: " << msg;
  }
  EXPECT_THROW(ProtocolRegistry::global().traits("nope"), std::invalid_argument);
  EXPECT_FALSE(ProtocolRegistry::global().contains("nope"));
  EXPECT_TRUE(ProtocolRegistry::global().contains("algo-b"));
}

TEST(Registry, TraitsRecordCapabilities) {
  const ProtocolTraits& a = ProtocolRegistry::global().traits("algo-a");
  EXPECT_TRUE(a.snow_s && a.snow_n && a.snow_o && a.snow_w);
  EXPECT_FALSE(a.mwmr);  // MWSR only
  const ProtocolTraits& b = ProtocolRegistry::global().traits("algo-b");
  EXPECT_TRUE(b.snow_s && b.snow_n && b.snow_w && b.mwmr);
  EXPECT_FALSE(b.snow_o);  // two rounds
  const ProtocolTraits& e = ProtocolRegistry::global().traits("eiger");
  EXPECT_FALSE(e.claims_strict_serializability);  // §6 refutes the claim
}

TEST(Registry, BuildOptionsParseAndTypedAccess) {
  const BuildOptions opts = BuildOptions::parse("coordinator=2,gc_versions=true");
  EXPECT_EQ(opts.get_int("coordinator", 0), 2);
  EXPECT_TRUE(opts.get_bool("gc_versions"));
  EXPECT_EQ(opts.get_int("absent", 7), 7);
  EXPECT_THROW(BuildOptions::parse("novalue"), std::invalid_argument);
  EXPECT_THROW(opts.get_bool("coordinator"), std::invalid_argument);
}

TEST(SystemConfigValidation, RejectsDegenerateConfigs) {
  SimRuntime sim;
  HistoryRecorder rec(2);
  EXPECT_THROW(build_protocol("algo-b", sim, rec, SystemConfig{0, 1, 1}), std::invalid_argument);
  EXPECT_THROW(build_protocol("simple", sim, rec, SystemConfig{2, 0, 0}), std::invalid_argument);
}

TEST(SystemConfigValidation, RejectsSpanBeyondObjects) {
  SimRuntime sim;
  HistoryRecorder rec(2);
  auto sys = build_protocol("algo-b", sim, rec, SystemConfig{2, 1, 1});
  WorkloadSpec spec;
  spec.read_span = 5;  // > num_objects
  EXPECT_THROW(WorkloadDriver(sim, *sys, spec), std::invalid_argument);
  WorkloadSpec zero;
  zero.write_span = 0;
  EXPECT_THROW(WorkloadDriver(sim, *sys, zero), std::invalid_argument);
}

TEST(Placement, DefaultIsOneServerPerObjectIdentity) {
  const SystemConfig cfg{4, 1, 1};
  const Placement place(cfg);
  EXPECT_EQ(place.num_servers(), 4u);
  for (ObjectId obj = 0; obj < 4; ++obj) EXPECT_EQ(place.server_node(obj), obj);
}

TEST(Placement, ShardingCoversAllObjectsAndServers) {
  for (PlacementKind kind : {PlacementKind::kHash, PlacementKind::kRange}) {
    SystemConfig cfg{8, 1, 1};
    cfg.num_servers = 3;
    cfg.placement = kind;
    const Placement place(cfg);
    EXPECT_EQ(place.num_servers(), 3u);
    std::size_t covered = 0;
    for (std::size_t s = 0; s < 3; ++s) {
      for (ObjectId obj : place.objects_on(s)) {
        EXPECT_EQ(place.shard_of(obj), s);
        ++covered;
      }
    }
    EXPECT_EQ(covered, 8u);  // every object lives on exactly one shard
  }
}

// Every registered protocol must build by name on SimRuntime and pass its
// checkers on a small closed-loop workload — the registry's contract.
class EveryProtocol : public testing::TestWithParam<std::string> {};

TEST_P(EveryProtocol, BuildsByNameAndPassesCheckers) {
  const std::string& name = GetParam();
  const ProtocolTraits& traits = ProtocolRegistry::global().traits(name);
  SimRuntime sim(make_uniform_delay(10, 4000, 11));
  HistoryRecorder rec(3);
  const std::size_t readers = traits.mwmr ? 2 : 1;
  auto sys = build_protocol(name, sim, rec, SystemConfig{3, readers, 2});
  EXPECT_EQ(sys->name(), name);
  WorkloadSpec spec;
  spec.ops_per_reader = 15;
  spec.ops_per_writer = 8;
  spec.read_span = 2;
  spec.write_span = 2;
  spec.seed = 5;
  WorkloadDriver driver(sim, *sys, spec);
  driver.start();
  sim.run_until_idle();
  ASSERT_TRUE(driver.done());
  const History h = rec.snapshot();
  EXPECT_EQ(h.completed_reads(), readers * 15);
  EXPECT_EQ(h.completed_writes(), 2u * 8);
  if (traits.provides_tags) {
    const auto verdict = check_tag_order(h);
    EXPECT_TRUE(verdict.ok) << name << ": " << verdict.explanation;
  }
  const auto report = analyze_snow_trace(sim.trace(), sys->num_servers(), h);
  if (traits.snow_n) {
    EXPECT_TRUE(report.satisfies_n())
        << name << ": " << (report.violations.empty() ? "" : report.violations[0]);
  }
}

// The client boundary refuses a READ or WRITE that names an object twice or
// an id >= k, before anything is posted: a repeated READ object would wedge
// completion (it counts distinct objects) and a repeated WRITE object has no
// per-server write-val encoding.  A valid transaction still completes after.
TEST_P(EveryProtocol, RefusesRepeatedOrOutOfRangeObjectsAtTheClientBoundary) {
  const std::string& name = GetParam();
  SimRuntime sim(make_uniform_delay(10, 4000, 11));
  HistoryRecorder rec(3);
  auto sys = build_protocol(name, sim, rec, SystemConfig{3, 1, 1});
  TxnClient& client = sys->client(0);
  const auto refused = [&](TxnRequest req) {
    EXPECT_THROW(client.submit(std::move(req), [](const TxnResult&) {}), std::invalid_argument);
  };
  refused(read_txn({1, 1}));
  refused(read_txn({0, 3}));
  refused(write_txn({{2, 5}, {2, 6}}));
  refused(write_txn({{7, 5}}));
  EXPECT_THROW(invoke_read(sim, sys->reader(0), {2, 0, 2}, [](const TxnResult&) {}),
               std::invalid_argument);
  EXPECT_THROW(invoke_read(sim, sys->reader(0), {3}, [](const TxnResult&) {}),
               std::invalid_argument);
  EXPECT_THROW(invoke_write(sim, sys->writer(0), {{0, 1}, {0, 2}}, [](const TxnResult&) {}),
               std::invalid_argument);
  EXPECT_THROW(invoke_write(sim, sys->writer(0), {{3, 1}}, [](const TxnResult&) {}),
               std::invalid_argument);
  EXPECT_THROW(invoke_read(sim, sys->reader(0), {}, [](const TxnResult&) {}),
               std::invalid_argument);
  EXPECT_THROW(invoke_write(sim, sys->writer(0), {}, [](const TxnResult&) {}),
               std::invalid_argument);
  sim.run_until_idle();
  EXPECT_EQ(rec.snapshot().txns.size(), 0u) << "a refused transaction reached the protocol";
  int done = 0;
  client.submit(write_txn({{2, 5}, {0, 6}}), [&](const TxnResult&) { ++done; });
  sim.run_until_idle();
  client.submit(read_txn({0, 2}), [&](const TxnResult& r) {
    ++done;
    EXPECT_EQ(r.values.size(), 2u);
  });
  sim.run_until_idle();
  EXPECT_EQ(done, 2);
}

INSTANTIATE_TEST_SUITE_P(Registry, EveryProtocol, testing::ValuesIn(registered_protocols()),
                         [](const testing::TestParamInfo<std::string>& info) {
                           std::string n = info.param;
                           for (auto& ch : n) {
                             if (ch == '-') ch = '_';
                           }
                           return n;
                         });

// A hash-sharded k=8, s=3 fleet must round-trip reads and writes correctly:
// a READ after a quiesced WRITE returns exactly the written values.
TEST(Sharding, HashShardedTopologyRoundTripsReadsAndWrites) {
  SystemConfig cfg{8, 1, 1};
  cfg.num_servers = 3;
  SimRuntime sim;
  HistoryRecorder rec(cfg.num_objects);
  auto sys = build_protocol("algo-b", sim, rec, cfg);
  EXPECT_EQ(sys->num_servers(), 3u);
  EXPECT_LT(sys->server_node(7), 3u);

  sys->client(0).submit(write_txn(write_all(8, 100)), [](const TxnResult&) {});
  sim.run_until_idle();

  TxnResult got;
  sys->client(0).submit(read_txn(all_objects(8)), [&](const TxnResult& r) { got = r; });
  sim.run_until_idle();
  ASSERT_EQ(got.values.size(), 8u);
  for (const auto& [obj, value] : got.values) {
    EXPECT_EQ(value, 100 + static_cast<Value>(obj)) << "object " << obj;
  }
  const auto verdict = check_tag_order(rec.snapshot());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

// The acceptance scenario: objects > servers, mixed open-loop workload on
// SimRuntime, tag-order and SNOW checks passing.
class ShardedOpenLoop : public testing::TestWithParam<std::string> {};

TEST_P(ShardedOpenLoop, MixedWorkloadPassesChecksOnShardedFleet) {
  const std::string& name = GetParam();
  SystemConfig cfg{8, 2, 2};
  cfg.num_servers = 3;
  cfg.placement = name == "algo-b" ? PlacementKind::kHash : PlacementKind::kRange;
  SimRuntime sim(make_uniform_delay(10, 5000, 21));
  HistoryRecorder rec(cfg.num_objects);
  auto sys = build_protocol(name, sim, rec, cfg);

  WorkloadSpec spec;
  spec.read_span = 3;
  spec.write_span = 2;
  spec.seed = 9;
  DriverOptions opts;
  opts.mode = ArrivalMode::kOpenLoop;
  opts.total_ops = 120;
  opts.arrival_interval_ns = 20'000;  // faster than the mean txn latency: real backlog
  opts.read_fraction = 0.75;
  WorkloadDriver driver(sim, *sys, spec, opts);
  driver.start();
  sim.run_until_idle();
  ASSERT_TRUE(driver.done());
  EXPECT_EQ(driver.completed_reads() + driver.completed_writes(), 120u);
  EXPECT_GT(driver.completed_reads(), 0u);
  EXPECT_GT(driver.completed_writes(), 0u);

  const History h = rec.snapshot();
  EXPECT_EQ(h.completed_reads() + h.completed_writes(), 120u);
  const auto verdict = check_tag_order(h);
  EXPECT_TRUE(verdict.ok) << name << ": " << verdict.explanation;
  const auto report = analyze_snow_trace(sim.trace(), sys->num_servers(), h);
  EXPECT_TRUE(report.satisfies_n())
      << name << ": " << (report.violations.empty() ? "" : report.violations[0]);
}

INSTANTIATE_TEST_SUITE_P(Protocols, ShardedOpenLoop, testing::Values("algo-b", "algo-c"),
                         [](const testing::TestParamInfo<std::string>& info) {
                           std::string n = info.param;
                           for (auto& ch : n) {
                             if (ch == '-') ch = '_';
                           }
                           return n;
                         });

// Mixed closed-loop chains through the unified clients.
TEST(WorkloadDriverApi, MixedClosedLoopCompletesExactCounts) {
  SimRuntime sim;
  HistoryRecorder rec(4);
  auto sys = build_protocol("algo-c", sim, rec, SystemConfig{4, 2, 2});
  WorkloadSpec spec;
  spec.read_span = 2;
  spec.write_span = 2;
  spec.seed = 3;
  DriverOptions opts;
  opts.mode = ArrivalMode::kMixedClosedLoop;
  opts.ops_per_client = 25;
  opts.read_fraction = 0.6;
  WorkloadDriver driver(sim, *sys, spec, opts);
  EXPECT_EQ(driver.total_ops(), 50u);
  driver.start();
  sim.run_until_idle();
  ASSERT_TRUE(driver.done());
  EXPECT_EQ(driver.completed_reads() + driver.completed_writes(), 50u);
  const auto verdict = check_tag_order(rec.snapshot());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

// Open loop on ThreadRuntime: the timer thread paces arrivals in wall time.
TEST(WorkloadDriverApi, OpenLoopRunsOnThreads) {
  ThreadRuntime rt;
  HistoryRecorder rec(4);
  auto sys = build_protocol("algo-b", rt, rec, SystemConfig{4, 2, 2});
  rt.start();
  WorkloadSpec spec;
  spec.read_span = 2;
  spec.seed = 13;
  DriverOptions opts;
  opts.mode = ArrivalMode::kOpenLoop;
  opts.total_ops = 60;
  opts.arrival_interval_ns = 50'000;  // 50us
  opts.read_fraction = 0.5;
  WorkloadDriver driver(rt, *sys, spec, opts);
  driver.start();
  driver.wait();
  rt.stop();
  const auto verdict = check_tag_order(rec.snapshot());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
  EXPECT_EQ(rec.snapshot().completed_reads() + rec.snapshot().completed_writes(), 60u);
}

// TxnRequest must be exactly one of read-set / write-set.
TEST(WorkloadDriverApi, RejectsMalformedTxnRequests) {
  SimRuntime sim;
  HistoryRecorder rec(2);
  auto sys = build_protocol("simple", sim, rec, SystemConfig{2, 1, 1});
  TxnRequest bad;  // neither reads nor writes
  EXPECT_DEATH(sys->client(0).submit(std::move(bad), nullptr), "read-set or a write-set");
}

}  // namespace
}  // namespace snowkit

// Client churn end-to-end over a real 3-daemon TCP fleet: the churn
// controller (core/churn.hpp) repeatedly stalls the client's reader,
// quiesces, cuts a live server link, pokes the servers' pre-HELLO bounds
// with garbage connects, and lets NetRuntime's initiator-side redial bring
// the fleet back — while an open-loop TrafficModel engine keeps a paced
// workload flowing.  The run must finish with tcp_reconnects scored on BOTH
// sides of the drop, ZERO lost acknowledged writes (max-tag read-back, as
// in the failover e2e), and a green tag-order check.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "checker/tag_order.hpp"
#include "core/churn.hpp"
#include "core/run_workload.hpp"
#include "core/system.hpp"
#include "fleet_e2e.hpp"
#include "runtime/daemon_fleet.hpp"
#include "runtime/fleet.hpp"

namespace snowkit {
namespace {

#ifndef __linux__

TEST(ChurnNetE2E, RequiresLinux) { GTEST_SKIP() << "TCP transport requires Linux"; }

#else

TEST(ChurnNetE2E, ChurningClientLosesNoAckedWriteAndScoresReconnects) {
  if (!net::transport_supported()) GTEST_SKIP() << "TCP transport requires Linux";
  FleetConfig fleet;
  fleet.protocol = "algo-b";
  fleet.system.num_objects = 8;
  fleet.system.num_readers = 2;
  fleet.system.num_writers = 2;
  fleet.system.num_servers = 3;
  for (const std::uint16_t port : net::pick_free_ports(4)) {
    fleet.processes.push_back({"127.0.0.1", port});
  }
  const ScratchDir dir("churn");
  DaemonFleet daemons(fleet, DaemonFiles{dir.path + "/fleet.cfg", "", "", dir.path + "/stats"});
  daemons.spawn();
  ASSERT_TRUE(daemons.wait_listening(std::chrono::seconds(15))) << "a daemon never listened";

  NetRuntime rt(fleet.net_options(fleet.client_index()));
  HistoryRecorder rec(fleet.system.num_objects);
  auto sys = build_protocol(fleet.protocol, rt, rec, fleet.system, fleet.options);
  rt.start();
  ASSERT_TRUE(rt.wait_connected_for(15'000'000'000ull));

  // Open-loop TrafficModel engine: skewed, permuted, write-heavy enough that
  // every churn cycle has acked writes at stake.
  WorkloadSpec spec;
  spec.seed = 41;
  DriverOptions opts;
  opts.mode = ArrivalMode::kOpenLoop;
  opts.total_ops = 2000;
  opts.arrival_interval_ns = 500'000;  // 2000 ops/s nominal.
  TrafficModel model;
  model.zipf_theta = 0.9;
  model.permute_ranks = true;
  model.read_fraction = 0.5;
  model.write_span = SpanDist::fixed(2);
  model.read_span = SpanDist{SpanKind::kUniform, 1, 4, 0.5};
  model.logical_clients = 1'000'000;
  opts.traffic = model;
  opts.arrival_shards = 2;
  WorkloadDriver driver(rt, *sys, spec, opts);
  driver.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  ChurnOptions copts;
  copts.cycles = 2;
  copts.stall_ns = 20'000'000;
  copts.settle_ns = 50'000'000;
  copts.prehello_probes = 4;
  const ChurnReport rep = run_churn(rt, driver, copts);
  EXPECT_GE(rep.cycles_run, 1u);
  EXPECT_GE(rep.drops_requested, 1u);
  EXPECT_GT(rep.prehello_probes, 0u);
  EXPECT_TRUE(rep.clean()) << rep.drain_timeouts << " drain timeouts, "
                           << rep.reconnect_timeouts << " reconnect timeouts";

  ASSERT_TRUE(wait_done(driver, 120'000))
      << "workload wedged across churn: " << driver.completed_reads() << " reads + "
      << driver.completed_writes() << " writes of " << driver.total_ops() << " completed";
  EXPECT_EQ(driver.completed_reads() + driver.completed_writes(), 2000u);
  EXPECT_EQ(driver.sojourn_latency().count, 2000u);

  // The client's side of the drops: every injected drop redialed.
  const TransportStats client_stats = rt.transport_stats();
  EXPECT_GE(client_stats.churn_drops, rep.drops_requested);
  EXPECT_GE(client_stats.churn_stalls, rep.cycles_run);
  EXPECT_GT(client_stats.reconnects, 0u) << "no reconnect ever happened — churn was a no-op";

  // Zero lost acked writes: max-tag read-back, as in the failover e2e.
  const History h = expect_no_lost_acked_write(rt, *sys, rec, /*seed=*/43);
  ASSERT_FALSE(HasFatalFailure());
  const auto verdict = check_tag_order(h);
  EXPECT_TRUE(verdict.ok) << verdict.explanation;

  rt.broadcast_shutdown();
  rt.stop();

  // The servers' side: clean exits, and at least one daemon scored the
  // reconnect from the re-accepted client link in its --stats-json.
  for (std::size_t i = 0; i < daemons.size(); ++i) {
    EXPECT_TRUE(daemons.terminate(i)) << "daemon " << i << " did not exit cleanly";
    ASSERT_TRUE(daemons.stats(i).count("tcp_reconnects")) << "daemon " << i
                                                          << " wrote no stats json";
  }
  const double server_reconnects = daemons.summed_stats()["tcp_reconnects"];
  EXPECT_GT(server_reconnects, 0) << "no server saw the dropped client link come back";
}

#endif  // __linux__

}  // namespace
}  // namespace snowkit

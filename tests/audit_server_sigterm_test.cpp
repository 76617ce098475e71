// snowkit_server SIGTERM contract: a terminated daemon takes the same clean
// path as a SHUTDOWN frame — exit 0 and every audit chunk sealed.  The
// loader rejects torn chunks, so "all chunks load" IS the no-torn-final-
// chunk regression check.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <vector>

#include "audit/merge.hpp"
#include "core/run_workload.hpp"
#include "core/system.hpp"
#include "fleet_e2e.hpp"
#include "runtime/daemon_fleet.hpp"
#include "runtime/fleet.hpp"

namespace snowkit {
namespace {

#ifndef __linux__

TEST(AuditServerSigterm, RequiresLinux) { GTEST_SKIP() << "TCP transport requires Linux"; }

#else

FleetConfig make_fleet(const std::string& protocol) {
  FleetConfig fleet;
  fleet.protocol = protocol;
  fleet.system.num_objects = 2;
  fleet.system.num_readers = 1;
  fleet.system.num_writers = 1;
  fleet.system.num_servers = 2;
  for (const std::uint16_t port : net::pick_free_ports(2)) {
    fleet.processes.push_back({"127.0.0.1", port});
  }
  return fleet;
}

/// SIGTERMs daemon 0 and asserts exit 0 and that every chunk in the audit
/// dir loads (i.e. is sealed — load_chunk throws on a torn file).
std::vector<audit::ChunkFile> terminate_and_verify(DaemonFleet& daemon,
                                                   const std::string& audit_dir) {
  EXPECT_TRUE(daemon.terminate(0)) << "daemon did not exit cleanly on SIGTERM";

  std::vector<audit::ChunkFile> chunks;
  for (const auto& entry : std::filesystem::directory_iterator(audit_dir)) {
    EXPECT_NE(entry.path().extension(), ".tmp") << "unrenamed partial chunk left behind";
    if (entry.path().extension() == ".auditchunk") {
      chunks.push_back(audit::load_chunk(entry.path().string()));
    }
  }
  return chunks;
}

TEST(AuditServerSigterm, IdleDaemonSealsFinalChunkOnSigterm) {
  if (!net::transport_supported()) GTEST_SKIP() << "TCP transport requires Linux";
  const FleetConfig fleet = make_fleet("simple");
  const ScratchDir dir("sigterm_idle");
  const std::string audit_dir = dir.path + "/audit";
  DaemonFleet daemon(fleet, DaemonFiles{dir.path + "/fleet.cfg", audit_dir, "", ""});
  daemon.spawn();
  ASSERT_TRUE(daemon.wait_listening(std::chrono::seconds(15))) << "daemon never listened";
  const auto chunks = terminate_and_verify(daemon, audit_dir);
  // Even with zero traffic the close path seals a final (empty) chunk — the
  // clean-shutdown marker.
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].events.size(), 0u);
  EXPECT_EQ(chunks[0].meta.protocol, "simple");
}

TEST(AuditServerSigterm, SigtermAfterTrafficLeavesOnlySealedChunks) {
  if (!net::transport_supported()) GTEST_SKIP() << "TCP transport requires Linux";
  const FleetConfig fleet = make_fleet("algo-b");
  const ScratchDir dir("sigterm_traffic");
  const std::string audit_dir = dir.path + "/audit";
  DaemonFleet daemon(fleet, DaemonFiles{dir.path + "/fleet.cfg", audit_dir, "", ""});
  daemon.spawn();
  ASSERT_TRUE(daemon.wait_listening(std::chrono::seconds(15))) << "daemon never listened";

  // Drive a real workload from an in-test client process, then walk away
  // WITHOUT broadcasting SHUTDOWN — SIGTERM is the only stop signal the
  // daemon gets.
  {
    NetRuntime rt(fleet.net_options(fleet.client_index()));
    HistoryRecorder rec(fleet.system.num_objects);
    auto sys = build_protocol(fleet.protocol, rt, rec, fleet.system, fleet.options);
    rt.start();
    ASSERT_TRUE(rt.wait_connected_for(15'000'000'000ull));
    WorkloadSpec spec;
    spec.ops_per_reader = 20;
    spec.ops_per_writer = 10;
    spec.read_span = 2;
    spec.write_span = 2;
    spec.seed = 13;
    WorkloadDriver driver(rt, *sys, spec);
    driver.start();
    driver.wait();
    rt.stop();
  }

  const auto chunks = terminate_and_verify(daemon, audit_dir);
  ASSERT_FALSE(chunks.empty());
  std::uint64_t events = 0;
  for (const auto& c : chunks) events += c.events.size();
  EXPECT_GT(events, 0u) << "daemon captured no traffic";
  // The daemon's chunks alone merge into a coherent (history-less) run.
  const auto merged = audit::merge_chunks(chunks);
  EXPECT_EQ(merged.processes, 1u);
  EXPECT_GT(merged.total_events, 0u);
}

#endif  // __linux__

}  // namespace
}  // namespace snowkit

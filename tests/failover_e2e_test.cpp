// Failover end-to-end: a replicated 3-daemon fleet survives SIGKILL of the
// process hosting shard 0's PRIMARY (which is also the algo-b coordinator
// s*) while a client workload is in flight.  The surviving backup must take
// over — NetRuntime's peer-down detector fans NodeDownNotice to the backup,
// the backup replays its log and broadcasts TakeoverNotice, clients re-route
// — and the run must finish with ZERO lost acknowledged writes: after all
// writes complete, full-span reads return exactly the max-tag write per
// object, and the merged audit of the surviving processes re-checks green.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "audit/capture.hpp"
#include "audit/check.hpp"
#include "audit/merge.hpp"
#include "checker/tag_order.hpp"
#include "core/run_workload.hpp"
#include "core/system.hpp"
#include "fleet_e2e.hpp"
#include "runtime/daemon_fleet.hpp"
#include "runtime/fleet.hpp"

namespace snowkit {
namespace {

#ifndef __linux__

TEST(FailoverE2E, RequiresLinux) { GTEST_SKIP() << "TCP transport requires Linux"; }

#else

FleetConfig make_replicated_fleet() {
  FleetConfig fleet;
  fleet.protocol = "algo-b";  // coordinator s* = shard 0: killing process 0
                              // fails over coordination, not just storage
  fleet.system.num_objects = 4;
  fleet.system.num_readers = 2;
  fleet.system.num_writers = 2;
  fleet.system.num_servers = 3;
  fleet.replicas = 2;
  fleet.options.set("replicas", std::int64_t{2});
  // 1s default detection grace would dominate the test; 250ms is still far
  // above loopback jitter.
  fleet.transport.parse_csv("peer_down_grace_ms=250");
  for (const std::uint16_t port : net::pick_free_ports(4)) {
    fleet.processes.push_back({"127.0.0.1", port});
  }
  return fleet;
}

/// Loads every SEALED chunk in `dir`; torn chunks (a SIGKILLed writer's
/// unsealed tail) are skipped, mirroring what an operator can actually
/// recover after a crash.
std::vector<audit::ChunkFile> load_sealed_chunks(const std::string& dir) {
  std::vector<audit::ChunkFile> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".auditchunk") continue;
    try {
      out.push_back(audit::load_chunk(entry.path().string()));
    } catch (const std::exception&) {
      // torn final chunk of a killed process — unrecoverable by design
    }
  }
  return out;
}

TEST(FailoverE2E, PrimaryDaemonSigkillMidRunLosesNoAckedWrite) {
  if (!net::transport_supported()) GTEST_SKIP() << "TCP transport requires Linux";
  const FleetConfig fleet = make_replicated_fleet();
  // One audit dir for every process's chunks, one WAL dir for every
  // daemon's logs.  CI points SNOWKIT_FAILOVER_KEEP_DIR at a workspace path
  // so the job can re-run `snowkit_audit check` over the surviving chunks
  // with the real CLI afterwards.
  const ScratchDir dir("failover", std::getenv("SNOWKIT_FAILOVER_KEEP_DIR"));
  const DaemonFiles files{dir.path + "/fleet.cfg", dir.path + "/audit", dir.path + "/wal", ""};
  DaemonFleet daemons(fleet, files);
  daemons.spawn();
  ASSERT_TRUE(daemons.wait_listening(std::chrono::seconds(15))) << "a daemon never listened";

  // The client process, with a lossless audit capture so the merged run
  // keeps the checkers conclusive on the client's side of the story.
  audit::CaptureOptions copts;
  copts.dir = files.audit_dir;
  copts.process_index = static_cast<std::uint32_t>(fleet.client_index());
  copts.protocol = fleet.protocol;
  copts.num_servers = static_cast<std::uint32_t>(fleet.system.server_count());
  copts.fleet_text = fleet_text(fleet);
  copts.ring_capacity = 1 << 16;
  audit::AuditCapture cap(copts);

  NetRuntime rt(fleet.net_options(fleet.client_index()));
  rt.set_observer(&cap);
  HistoryRecorder rec(fleet.system.num_objects);
  auto sys = build_protocol(fleet.protocol, rt, rec, fleet.system, fleet.options);
  rt.start();
  ASSERT_TRUE(rt.wait_connected_for(15'000'000'000ull));

  // Phase 1: mixed closed loop, sized so the SIGKILL below lands mid-run on
  // any realistic machine (and stays correct either way — phase 2 still
  // forces shard 0 traffic through the failed-over backup).
  WorkloadSpec spec;
  spec.ops_per_reader = 600;
  spec.ops_per_writer = 400;
  spec.read_span = 2;
  spec.write_span = 2;
  spec.seed = 29;
  WorkloadDriver driver(rt, *sys, spec);
  driver.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Kill the daemon hosting shard 0's primary (process 0; the backup lives
  // on process 1 by the fleet's cyclic placement).  SIGKILL: no shutdown
  // path, no sealed final chunk, exactly a crash.
  daemons.kill(0);

  ASSERT_TRUE(wait_done(driver, 120'000)) << "workload wedged across the failover: "
                                          << driver.completed_reads() << " reads + "
                                          << driver.completed_writes() << " writes of "
                                          << driver.total_ops() << " completed";
  EXPECT_EQ(driver.completed_reads(), 2u * 600u);
  EXPECT_EQ(driver.completed_writes(), 2u * 400u);

  // Phase 2: zero lost acked writes, by max-tag read-back through the
  // failed-over backup.
  const History h = expect_no_lost_acked_write(rt, *sys, rec, /*seed=*/31);
  ASSERT_FALSE(HasFatalFailure());
  const auto verdict = check_tag_order(h);
  EXPECT_TRUE(verdict.ok) << verdict.explanation;

  // Replication really persisted: the surviving daemons wrote WAL bytes.
  // The WAL dir is shared; each file is node-<id>.wal, owned by the process
  // FleetConfig::owner_of names.
  std::map<std::size_t, std::uintmax_t> wal_bytes;  // by fleet process
  for (const auto& e : std::filesystem::directory_iterator(files.wal_dir)) {
    const std::string name = e.path().stem().string();  // node-<id>
    ASSERT_EQ(name.rfind("node-", 0), 0u) << e.path();
    const auto node = static_cast<NodeId>(std::stoul(name.substr(5)));
    wal_bytes[fleet.owner_of(node)] += std::filesystem::file_size(e.path());
  }
  for (std::size_t i = 1; i < daemons.size(); ++i) {
    EXPECT_GT(wal_bytes[i], 0u) << "daemon " << i << " wrote no WAL";
  }

  // Seal and collect the audit: client capture + clean SIGTERM of the two
  // survivors.  The killed daemon's dir holds at most a torn tail.
  rt.stop();
  cap.set_history(h);
  cap.close();
  EXPECT_EQ(cap.stats().drops, 0u);
  EXPECT_TRUE(daemons.terminate(1)) << "surviving daemon 1 did not exit cleanly";
  EXPECT_TRUE(daemons.terminate(2)) << "surviving daemon 2 did not exit cleanly";

  // One audit dir holds every process's chunks, named by process index.
  const std::vector<audit::ChunkFile> chunks = load_sealed_chunks(files.audit_dir);
  std::size_t client_chunks = 0;
  for (const audit::ChunkFile& c : chunks) {
    if (c.meta.process_index == fleet.client_index()) ++client_chunks;
  }
  ASSERT_GT(client_chunks, 0u);
  ASSERT_GT(chunks.size(), client_chunks) << "survivors sealed no chunks";

  // The merged surviving capture must re-check green: the kill may make some
  // trace checks inconclusive (the dead process's events are gone), but no
  // checker may flag a violation — `snowkit_audit check` exit 0.
  const auto merged = audit::merge_chunks(chunks);
  ASSERT_TRUE(merged.history.has_value());
  const auto audit_verdict = audit::check_merged(merged);
  EXPECT_FALSE(audit_verdict.violation)
      << (audit_verdict.findings.empty() ? "" : audit_verdict.findings[0].explanation);
}

#endif  // __linux__

}  // namespace
}  // namespace snowkit

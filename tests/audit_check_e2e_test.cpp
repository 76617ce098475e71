// End-to-end flight-recorder pipeline on the threaded runtime: capture a
// real run through the MessageObserver seam, merge the chunks offline, and
// re-run the checkers — a correct protocol must re-check green, and the
// broken-stale fault stub must be flagged from its capture alone.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <vector>

#include "audit/capture.hpp"
#include "audit/check.hpp"
#include "audit/merge.hpp"
#include "audit/query.hpp"
#include "core/run_workload.hpp"
#include "core/system.hpp"
#include "fleet_e2e.hpp"
#include "runtime/daemon_fleet.hpp"
#include "runtime/fleet.hpp"
#include "runtime/thread_runtime.hpp"

namespace snowkit {
namespace {

using audit::AuditCapture;
using audit::CaptureOptions;
using audit::ChunkFile;

std::string fresh_dir(const std::string& tag) {
  const auto dir = std::filesystem::temp_directory_path() / ("snowkit_audit_e2e_" + tag);
  std::filesystem::remove_all(dir);
  return dir.string();
}

std::vector<ChunkFile> load_all(const std::string& dir) {
  std::vector<ChunkFile> chunks;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".auditchunk") {
      chunks.push_back(audit::load_chunk(entry.path().string()));
    }
  }
  return chunks;
}

/// Runs `protocol` on ThreadRuntime with the recorder attached and returns
/// the merged audit.  Each driver pass runs back-to-back on the same system
/// (phases let a test order writes before reads).
audit::MergedAudit captured_run(const std::string& protocol, SystemConfig topo,
                                const std::vector<WorkloadSpec>& phases) {
  const std::string dir = fresh_dir(protocol);
  CaptureOptions copts;
  copts.dir = dir;
  copts.protocol = protocol;
  copts.num_servers = static_cast<std::uint32_t>(topo.server_count());
  copts.ring_capacity = 1 << 16;  // lossless: keep the checkers conclusive

  ThreadRuntime rt;
  AuditCapture cap(copts);
  rt.set_observer(&cap);
  HistoryRecorder rec(topo.num_objects);
  auto sys = build_protocol(protocol, rt, rec, topo);
  rt.start();
  for (const WorkloadSpec& spec : phases) {
    WorkloadDriver driver(rt, *sys, spec);
    driver.start();
    driver.wait();
  }
  rt.stop();
  cap.set_history(rec.snapshot());
  cap.close();

  EXPECT_EQ(cap.stats().drops, 0u);
  auto merged = audit::merge_chunks(load_all(dir));
  std::filesystem::remove_all(dir);
  return merged;
}

TEST(AuditCheckE2E, CapturedAlgoBRunRechecksGreen) {
  WorkloadSpec spec;
  spec.ops_per_reader = 10;
  spec.ops_per_writer = 5;
  spec.read_span = 2;
  spec.write_span = 2;
  spec.seed = 21;
  const auto merged = captured_run("algo-b", SystemConfig{3, 2, 2}, {spec});

  EXPECT_EQ(merged.total_drops, 0u);
  EXPECT_EQ(merged.unmatched_recvs, 0u);
  ASSERT_TRUE(merged.history.has_value());
  EXPECT_EQ(merged.history->completed_reads(), 20u);

  const auto verdict = audit::check_merged(merged);
  EXPECT_FALSE(verdict.violation)
      << (verdict.findings.empty() ? "" : verdict.findings[0].explanation);
  // algo-b assigns tags and is non-blocking: both trace checkers must have
  // actually run (a capture that silently skipped them would be vacuous).
  EXPECT_FALSE(verdict.checks_run.empty());

  // Latency provenance over the same merged run: every read decomposes into
  // captured legs.
  const auto q = audit::query_merged(merged, /*slowest_n=*/3);
  EXPECT_GT(q.paired_messages, 0u);
  EXPECT_EQ(q.reads.count, 20u);
  EXPECT_FALSE(q.legs.empty());
  EXPECT_FALSE(q.payloads.empty());
  ASSERT_FALSE(q.slowest.empty());
  EXPECT_FALSE(q.slowest[0].legs.empty());
  EXPECT_GT(q.slowest[0].latency, 0);
  EXPECT_LE(q.slowest[0].accounted, q.slowest[0].latency);
}

TEST(AuditCheckE2E, BrokenStaleCaptureIsFlagged) {
  // Phase 1: a single writer commits 8 writes (totally ordered in real
  // time).  Phase 2: readers run strictly after — the lag-2 server now
  // CANNOT serve the latest committed value, so the captured history admits
  // no strict serialization and the audit must convict.
  WorkloadSpec writes;
  writes.ops_per_reader = 0;
  writes.ops_per_writer = 8;
  writes.write_span = 2;
  writes.seed = 5;
  WorkloadSpec reads;
  reads.ops_per_reader = 4;
  reads.ops_per_writer = 0;
  reads.read_span = 2;
  reads.seed = 6;
  const auto merged = captured_run("broken-stale", SystemConfig{2, 2, 1}, {writes, reads});

  const auto verdict = audit::check_merged(merged);
  EXPECT_TRUE(verdict.violation);
  ASSERT_FALSE(verdict.findings.empty());
  // broken-stale ADVERTISES strict serializability while the registry truth
  // denies it: the conviction is expected (the audit's whole job), and the
  // finding must say so.
  bool any_expected = false;
  for (const auto& f : verdict.findings) any_expected = any_expected || f.expected;
  EXPECT_TRUE(any_expected);
}

TEST(AuditCheckE2E, UnknownProtocolIsRejected) {
  audit::MergedAudit m;
  m.protocol = "no-such-protocol";
  EXPECT_THROW(audit::check_merged(m), std::invalid_argument);
}

#ifdef __linux__

/// The acceptance flow over a REAL multi-process fleet: three snowkit_server
/// daemons each capturing their own chunks, the driving client capturing a
/// fourth stream plus the fleet's only history, all merged offline into one
/// coherent record that the checkers convict.
TEST(AuditCheckE2E, BrokenStaleTcpFleetCaptureIsFlagged) {
  if (!net::transport_supported()) GTEST_SKIP() << "TCP transport requires Linux";

  FleetConfig fleet;
  fleet.protocol = "broken-stale";
  fleet.system.num_objects = 3;
  fleet.system.num_readers = 2;
  fleet.system.num_writers = 1;
  // One shard per object, one daemon per shard, plus the client process.
  for (const std::uint16_t port : net::pick_free_ports(4)) {
    fleet.processes.push_back({"127.0.0.1", port});
  }

  // Every process writes its chunks into the one shared audit dir.
  const ScratchDir root("audit_e2e_tcp_fleet");
  const std::string dir = root.path + "/audit";
  DaemonFleet daemons(fleet, DaemonFiles{root.path + "/fleet.cfg", dir, "", ""});
  daemons.spawn();
  ASSERT_TRUE(daemons.wait_listening(std::chrono::seconds(15))) << "a daemon never listened";

  // Client process: its own capture stream chained onto the runtime, plus
  // the fleet's only HistoryRecorder (clients live here).
  {
    CaptureOptions copts;
    copts.dir = dir;
    copts.process_index = static_cast<std::uint32_t>(fleet.client_index());
    copts.protocol = fleet.protocol;
    copts.num_servers = static_cast<std::uint32_t>(fleet.system.server_count());
    copts.fleet_text = fleet_text(fleet);
    copts.ring_capacity = 1 << 16;
    AuditCapture cap(copts);

    NetRuntime rt(fleet.net_options(fleet.client_index()));
    rt.set_observer(&cap);
    HistoryRecorder rec(fleet.system.num_objects);
    auto sys = build_protocol(fleet.protocol, rt, rec, fleet.system, fleet.options);
    rt.start();
    ASSERT_TRUE(rt.wait_connected_for(15'000'000'000ull)) << "fleet never connected";

    // Same two-phase shape as the ThreadRuntime test: totally-ordered writes
    // first, reads strictly after — the lag-2 replicas then cannot serve the
    // newest committed value and the exact search convicts deterministically.
    WorkloadSpec writes;
    writes.ops_per_reader = 0;
    writes.ops_per_writer = 8;
    writes.write_span = 2;
    writes.seed = 5;
    WorkloadSpec reads;
    reads.ops_per_reader = 4;
    reads.ops_per_writer = 0;
    reads.read_span = 2;
    reads.seed = 6;
    for (const WorkloadSpec& spec : {writes, reads}) {
      WorkloadDriver driver(rt, *sys, spec);
      driver.start();
      driver.wait();
    }

    rt.broadcast_shutdown();
    rt.stop();
    cap.set_history(rec.snapshot());
    cap.close();
    EXPECT_EQ(cap.stats().drops, 0u);
  }

  EXPECT_TRUE(daemons.reap(/*grace_ms=*/15'000)) << "a daemon exited abnormally";

  const auto merged = audit::merge_chunks(load_all(dir));
  EXPECT_EQ(merged.processes, 4u);  // 3 daemons + the driving client
  EXPECT_EQ(merged.total_drops, 0u);
  ASSERT_TRUE(merged.history.has_value());

  const auto verdict = audit::check_merged(merged);
  EXPECT_TRUE(verdict.violation) << "TCP fleet capture failed to convict broken-stale";
  ASSERT_FALSE(verdict.findings.empty());
  bool any_expected = false;
  for (const auto& f : verdict.findings) any_expected = any_expected || f.expected;
  EXPECT_TRUE(any_expected);
}

#endif  // __linux__

}  // namespace
}  // namespace snowkit

// Failing-schedule minimization + the repro trace-file contract.
//
// A failing case must shrink to a smaller case that still trips the same
// checker; the minimized case's recorded schedule must replay
// byte-identically (pinned by the stored trace fingerprint); and the trace
// file must round-trip through its binary codec unchanged — the
// end-to-end guarantees behind `fuzz_harness --replay` of a CI artifact.
#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>

#include "fuzz/fuzz_case.hpp"
#include "fuzz/oracle.hpp"
#include "fuzz/shrink.hpp"
#include "fuzz/trace_io.hpp"
#include "sim/trace.hpp"

namespace snowkit::fuzz {
namespace {

/// First (case, report) pair that trips the oracle for `protocol`.
bool find_failure(const std::string& protocol, FuzzCase* c, OracleReport* report) {
  GenParams params;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    *c = generate_case(protocol, params, seed);
    *report = check_run(protocol, run_case(*c));
    if (report->violation) return true;
  }
  return false;
}

TEST(Shrink, MinimizesWhilePreservingTheChecker) {
  FuzzCase failing;
  OracleReport original;
  ASSERT_TRUE(find_failure("eiger", &failing, &original));

  const ShrinkResult shrunk = shrink_case(failing, original.checker);
  EXPECT_LE(shrunk.minimized.ops.size(), failing.ops.size());
  EXPECT_LE(shrunk.minimized.num_objects, failing.num_objects);
  EXPECT_EQ(shrunk.report.checker, original.checker);
  EXPECT_GT(shrunk.runs, 0u);

  // The minimized case is an independent repro: a fresh seeded run (no
  // recorded log involved) still trips the same checker.
  const OracleReport again = check_run(shrunk.minimized.protocol, run_case(shrunk.minimized));
  EXPECT_TRUE(again.violation);
  EXPECT_EQ(again.checker, original.checker);
}

TEST(Shrink, MinimizedScheduleReplaysByteIdentically) {
  FuzzCase failing;
  OracleReport original;
  ASSERT_TRUE(find_failure("broken-stale", &failing, &original));
  const ShrinkResult shrunk = shrink_case(failing, original.checker);

  const CaseRun replayed = replay_case(shrunk.minimized, shrunk.log);
  EXPECT_FALSE(replayed.stats.guard_tripped);
  EXPECT_EQ(trace_fingerprint(replayed.trace), shrunk.trace_hash)
      << "replaying the minimized schedule must reproduce the recorded run byte-identically";
  const OracleReport report = check_run(shrunk.minimized.protocol, replayed);
  EXPECT_TRUE(report.violation);
  EXPECT_EQ(report.checker, shrunk.report.checker);
}

TEST(Shrink, RefusesACaseThatDoesNotReproduce) {
  const FuzzCase clean = generate_case("algo-b", GenParams{}, 1);
  ASSERT_FALSE(check_run("algo-b", run_case(clean)).violation);
  EXPECT_THROW(shrink_case(clean, "fractured-read"), std::invalid_argument);
}

TEST(TraceIo, EncodeDecodeRoundTripsExactly) {
  FuzzCase failing;
  OracleReport original;
  ASSERT_TRUE(find_failure("eiger", &failing, &original));
  const ShrinkResult shrunk = shrink_case(failing, original.checker);

  FuzzTraceFile file;
  file.c = shrunk.minimized;
  file.log = shrunk.log;
  file.checker = shrunk.report.checker;
  file.explanation = shrunk.report.explanation;
  file.trace_hash = shrunk.trace_hash;

  const auto bytes = encode_trace_file(file);
  const FuzzTraceFile decoded = decode_trace_file(bytes);
  EXPECT_EQ(decoded, file);

  const std::string path = testing::TempDir() + "snowkit_shrink_roundtrip.trace";
  write_trace_file(path, file);
  const FuzzTraceFile from_disk = read_trace_file(path);
  EXPECT_EQ(from_disk, file);
  std::remove(path.c_str());
}

TEST(TraceIo, RejectsForeignAndTruncatedFiles) {
  EXPECT_THROW(decode_trace_file({0x01, 0x02, 0x03}), std::exception);
  FuzzTraceFile file;
  file.c = generate_case("naive", GenParams{}, 2);
  auto bytes = encode_trace_file(file);
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW(decode_trace_file(bytes), std::exception);
  EXPECT_THROW(read_trace_file("/nonexistent/path.trace"), std::runtime_error);
}

/// What decoding `bytes` as a trace file throws, or "" when it decodes.
std::string decode_error(const std::vector<std::uint8_t>& bytes) {
  try {
    decode_trace_file(bytes);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(TraceIo, RejectsOutOfRangeDecisionKindsAndPlacements) {
  FuzzTraceFile file;
  file.c = generate_case("algo-b", GenParams{}, 2);
  file.c.placement = PlacementKind::kRange;
  file.log.decisions = {{ScheduleDecisionKind::kStep, 0}, {ScheduleDecisionKind::kSwitch, 3}};
  ASSERT_EQ(decode_trace_file(encode_trace_file(file)), file);
  // A decision kind the runner has no case for would replay as a no-op.
  FuzzTraceFile forged = file;
  forged.log.decisions.back().kind = static_cast<ScheduleDecisionKind>(5);
  EXPECT_EQ(decode_error(encode_trace_file(forged)), "fuzz trace: bad schedule decision kind 5");
  forged = file;
  forged.c.placement = static_cast<PlacementKind>(2);
  EXPECT_EQ(decode_error(encode_trace_file(forged)), "fuzz trace: bad placement 2");
}

TEST(TraceIo, SimTraceDecoderRefusesUnknownActionKinds) {
  Action a;
  a.kind = ActionKind::Restart;
  a.node = 1;
  Trace t;
  t.append(a);
  EXPECT_EQ(decode_trace(encode_trace(t)).size(), 1u);
  a.kind = static_cast<ActionKind>(6);
  Trace forged;
  forged.append(a);
  EXPECT_DEATH(decode_trace(encode_trace(forged)), "bad action kind 6");
}

TEST(TraceIo, StaleLogOnAShrunkCaseStillTerminates) {
  // Replaying a log over a DIFFERENT case must not hang or crash: the
  // runner abandons the log and drains deterministically.
  FuzzCase failing;
  OracleReport original;
  ASSERT_TRUE(find_failure("naive", &failing, &original));
  const CaseRun recorded = run_case(failing);
  FuzzCase shrunk = failing;
  shrunk.ops.resize(std::max<std::size_t>(1, shrunk.ops.size() / 2));
  const CaseRun replayed = replay_case(shrunk, recorded.log);
  EXPECT_TRUE(replayed.completed) << "stale-log replay must preserve liveness";
}

}  // namespace
}  // namespace snowkit::fuzz

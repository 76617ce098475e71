// Differential-fuzz battery for the adaptive meta-protocol (ISSUE 10
// acceptance).
//
// The same generated client programs and schedule seeds run across
// {adaptive, algo-b, algo-c} and every run must stay checker-green —
// including under recorded crash/restart schedules through the replicated
// build.  Recorded adaptive ScheduleLogs carry kSwitch annotations (the
// coordinator's mode flips at their position in the decision stream) and
// must still replay byte-identically, which is what lets adaptive repros
// minimize through the ddmin shrinker like any other protocol's.  The
// battery's own vacuity guard is broken-adaptive — the cache stub that
// serves cached versions without the watermark proof — which must be
// convicted within kConvictionSeeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/buffer.hpp"
#include "fuzz/fuzz_case.hpp"
#include "fuzz/oracle.hpp"
#include "sim/trace.hpp"

namespace snowkit::fuzz {
namespace {

// ISSUE 10 acceptance floor: >=200 seeds per protocol, crash/restart
// schedules included.
constexpr std::uint64_t kDifferentialSeeds = 200;
constexpr std::uint64_t kCrashSeeds = 25;
/// The slow rejoin sweep's window: 25 seeds once hid a rejoin defect that
/// 150 found.
constexpr std::uint64_t kRejoinSweepSeeds = 150;
constexpr std::uint64_t kConvictionSeeds = 20;
constexpr std::size_t kCrashPoints[] = {15, 40, 90};

const std::vector<std::string> kStrictTrio{"adaptive", "algo-b", "algo-c"};

/// Half the crash runs also restart the victim, 40 steps after the crash,
/// exercising WAL rejoin (and for adaptive: the all-B/epoch-0 reset of the
/// fresh lineage).
std::size_t restart_for(std::uint64_t seed, std::size_t crash_at) {
  return seed % 2 == 0 ? crash_at + 40 : 0;
}

/// Runs one crash (and maybe restart) schedule and expects it green and
/// complete.
CaseRun expect_green_crash_run(const std::string& protocol, const FuzzCase& c,
                               std::uint64_t seed, std::size_t crash_at) {
  const std::size_t restart_at = restart_for(seed, crash_at);
  CaseRun run = run_case_with_crash(c, /*victim=*/0, crash_at, restart_at);
  const OracleReport report = check_run(protocol, run);
  EXPECT_FALSE(report.violation) << protocol << " seed " << seed << " crash_at " << crash_at
                                 << " restart_at " << restart_at << ": " << report.checker
                                 << ": " << report.explanation;
  EXPECT_TRUE(run.completed) << protocol << " seed " << seed << " crash_at " << crash_at
                             << " restart_at " << restart_at
                             << ": workload wedged across failover";
  return run;
}

/// A hand-built case that reliably flips object 0 into C-mode: the default
/// switch_up of 4 against a 2s decay means four quick writes are enough,
/// and the trailing reads then travel the prefetch path.
FuzzCase switching_case(std::uint64_t seed) {
  FuzzCase c;
  c.protocol = "adaptive";
  c.num_objects = 2;
  c.num_readers = 1;
  c.num_writers = 1;
  c.schedule_seed = seed;
  // One unified client (max(readers, writers) = 1) running writes-then-reads
  // in FIFO order: the six writes build object 0's EWMA credit past
  // switch_up, the reads then travel the C-mode prefetch path.
  for (Value v = 1; v <= 6; ++v) c.ops.push_back({/*client=*/0, false, {0}, {v * 10}});
  c.ops.push_back({/*client=*/0, true, {0, 1}, {}});
  c.ops.push_back({/*client=*/0, true, {0, 1}, {}});
  return c;
}

bool has_switch(const ScheduleLog& log) {
  return std::any_of(log.decisions.begin(), log.decisions.end(), [](const ScheduleDecision& d) {
    return d.kind == ScheduleDecisionKind::kSwitch;
  });
}

TEST(AdaptiveFuzz, DifferentialBatteryStaysGreenAcrossTheStrictTrio) {
  GenParams params;
  for (std::uint64_t seed = 1; seed <= kDifferentialSeeds; ++seed) {
    const FuzzCase base = generate_case("adaptive", params, seed);
    const DifferentialReport diff = differential_check(base, kStrictTrio);
    ASSERT_EQ(diff.outcomes.size(), kStrictTrio.size());
    for (const DifferentialOutcome& out : diff.outcomes) {
      EXPECT_FALSE(out.report.violation)
          << out.protocol << " failed the shared program at seed " << seed << ": "
          << out.report.checker << ": " << out.report.explanation;
    }
    EXPECT_FALSE(diff.divergence) << "seed " << seed << ": " << diff.details;
  }
}

TEST(AdaptiveFuzz, CrashRestartSchedulesStayGreenAcrossTheTrio) {
  GenParams params;
  for (const std::string& protocol : kStrictTrio) {
    for (std::uint64_t seed = 1; seed <= kCrashSeeds; ++seed) {
      FuzzCase c = generate_case(protocol, params, seed);
      c.replicas = 2;
      for (const std::size_t crash_at : kCrashPoints) {
        expect_green_crash_run(protocol, c, seed, crash_at);
      }
    }
  }
}

/// The sharded slice: replicated, with fewer servers than objects under range
/// placement, so objects 0 and 1 always share shard 0 (the coordinator's,
/// and the crash victim).  A multi-object WRITE then travels as one
/// write-val per server, logged as one multi-record replication batch.
FuzzCase sharded_case(const std::string& protocol, std::uint64_t seed) {
  FuzzCase c = generate_case(protocol, GenParams{}, seed);
  c.replicas = 2;
  c.num_servers = c.num_objects - 1;
  c.placement = PlacementKind::kRange;
  return c;
}

TEST(AdaptiveFuzz, ShardedCrashSchedulesHitBatchedWriteValsAndStayGreen) {
  // Crash schedules, restarts on even seeds as in the unsharded battery: a
  // request reaching the restarted replica mid-rejoin is redirected with
  // its txn, so a multi-record batch survives the rejoin too.
  std::size_t write_vals = 0;
  std::size_t written_objects = 0;
  for (const std::string& protocol : kStrictTrio) {
    for (std::uint64_t seed = 1; seed <= kCrashSeeds; ++seed) {
      const FuzzCase c = sharded_case(protocol, seed);
      for (const std::size_t crash_at : kCrashPoints) {
        const CaseRun run = expect_green_crash_run(protocol, c, seed, crash_at);
        for (const Action& a : run.trace.actions()) {
          write_vals += a.kind == ActionKind::Send && a.msg == "write-val" ? 1 : 0;
        }
        for (const FuzzOp& op : c.ops) written_objects += op.is_read ? 0 : op.objects.size();
      }
    }
  }
  // Fewer write-vals than written objects (takeover re-sends included):
  // the slice really exercises write-vals carrying several objects.
  EXPECT_LT(write_vals, written_objects);
}

// The rejoin sweep over kRejoinSweepSeeds, unsharded and sharded, with
// restarts on even seeds.  DISABLED_ here; ctest's slow-labelled
// adaptive_fuzz_rejoin_slow entry runs it (`ctest -L slow`).
TEST(AdaptiveFuzz, DISABLED_RejoinSweepStaysGreenOver150Seeds) {
  for (const std::string& protocol : kStrictTrio) {
    for (std::uint64_t seed = 1; seed <= kRejoinSweepSeeds; ++seed) {
      FuzzCase unsharded = generate_case(protocol, GenParams{}, seed);
      unsharded.replicas = 2;
      for (const FuzzCase& c : {unsharded, sharded_case(protocol, seed)}) {
        for (const std::size_t crash_at : kCrashPoints) {
          expect_green_crash_run(protocol, c, seed, crash_at);
        }
      }
    }
  }
}

/// One crash schedule of the rejoin sweep, widened to seeds 1-1000, that a
/// rejoin defect broke; restarts follow restart_for().
struct PinnedCrash {
  const char* protocol;
  std::uint64_t seed;
  bool sharded;
  std::size_t crash_at;
};

void expect_green_pinned(const std::vector<PinnedCrash>& cases) {
  for (const PinnedCrash& p : cases) {
    FuzzCase c = generate_case(p.protocol, GenParams{}, p.seed);
    c.replicas = 2;
    if (p.sharded) c = sharded_case(p.protocol, p.seed);
    expect_green_crash_run(p.protocol, c, p.seed, p.crash_at);
  }
}

TEST(AdaptiveFuzz, ARejoinAppliesOnlyTheResponseToItsOutstandingJoin) {
  // A restarted replica sends two joins, boot()'s and then demote()'s on a
  // newer-epoch ack.  Applying the second response, a reset, rewound a log
  // that had taken newer appends, and the WRITE they carried never
  // completed.
  expect_green_pinned({{"algo-b", 60, true, 90},
                       {"algo-b", 126, false, 90},
                       {"adaptive", 786, false, 40},
                       {"algo-c", 786, false, 40}});
}

TEST(AdaptiveFuzz, AReplicaMidRejoinAnswersAReadAtOnce) {
  // Parking a READ's request until the rejoin resolved let the replica
  // consume other inputs first, which breaks N.
  expect_green_pinned({{"algo-c", 72, false, 40},
                       {"algo-b", 848, false, 40},
                       {"adaptive", 950, true, 40}});
}

TEST(AdaptiveFuzz, AnOvertakenUpdateCoorRetryIsNotListedTwice) {
  // A WRITE's update-coor retry, overtaken by the writer's next WRITE, was
  // listed again; the List then named a version GC had pruned, and the
  // READ retried until it gave up.
  expect_green_pinned({{"algo-b", 833, true, 90}});
}

TEST(AdaptiveFuzz, BrokenLostackIsConvictedOnTheShardedSlice) {
  // The vacuity guard for the slice above: acking before replication must
  // still lose an acknowledged write when the acked batch holds several
  // inserts.
  for (std::uint64_t seed = 1; seed <= kConvictionSeeds; ++seed) {
    const FuzzCase c = sharded_case("broken-lostack", seed);
    for (const std::size_t crash_at : kCrashPoints) {
      const CaseRun run = run_case_with_crash(c, /*victim=*/0, crash_at);
      if (check_run("broken-lostack", run).violation) return;
    }
  }
  FAIL() << "broken-lostack ran clean on " << kConvictionSeeds
         << " sharded crash-schedule seeds: the sharded slice is vacuous";
}

TEST(AdaptiveFuzz, SwitchDecisionsLandInTheLogAndReplayByteIdentically) {
  for (std::uint64_t seed : {1ull, 5ull, 9ull}) {
    const FuzzCase c = switching_case(seed);
    const CaseRun first = run_case(c);
    ASSERT_TRUE(first.completed) << "seed " << seed;
    EXPECT_TRUE(has_switch(first.log))
        << "seed " << seed << ": six back-to-back writes produced no kSwitch annotation";
    const CaseRun again = replay_case(c, first.log);
    EXPECT_EQ(trace_fingerprint(first.trace), trace_fingerprint(again.trace)) << "seed " << seed;
    EXPECT_TRUE(again.log == first.log)
        << "seed " << seed << ": replay re-emitted a different decision stream";
    EXPECT_FALSE(again.stats.guard_tripped) << "seed " << seed;
  }
}

TEST(AdaptiveFuzz, CrashSchedulesWithSwitchesReplayByteIdentically) {
  FuzzCase c = switching_case(3);
  c.replicas = 2;
  const CaseRun first = run_case_with_crash(c, /*victim=*/0, /*crash_at=*/60, /*restart_at=*/120);
  ASSERT_TRUE(first.completed);
  const CaseRun again = replay_case(c, first.log);
  EXPECT_EQ(trace_fingerprint(first.trace), trace_fingerprint(again.trace));
  EXPECT_TRUE(again.log == first.log);
}

TEST(AdaptiveFuzz, SwitchAnnotationsSurviveTheLogCodec) {
  // kind rides as a raw u8, so kSwitch needs no codec change — pin it.
  ScheduleLog log;
  log.holds = {1, 0, 1};
  log.decisions.push_back({ScheduleDecisionKind::kStep, 0});
  log.decisions.push_back({ScheduleDecisionKind::kSwitch, (7u << 1) | 1u});
  log.decisions.push_back({ScheduleDecisionKind::kRelease, 2});
  BufWriter w;
  encode_schedule_log(log, w);
  const auto bytes = w.take();
  BufReader r(bytes);
  const ScheduleLog back = decode_schedule_log(r);
  EXPECT_TRUE(back == log);
}

TEST(AdaptiveFuzz, BrokenAdaptiveIsConvictedWithinBudget) {
  GenParams params;
  OracleReport convicting;
  std::uint64_t convicted_at = 0;
  for (std::uint64_t seed = 1; seed <= kConvictionSeeds && convicted_at == 0; ++seed) {
    const FuzzCase c = generate_case("broken-adaptive", params, seed);
    const OracleReport report = check_run("broken-adaptive", run_case(c));
    if (report.violation) {
      convicting = report;
      convicted_at = seed;
    }
  }
  ASSERT_NE(convicted_at, 0u)
      << "the unproved-cache injection survived " << kConvictionSeeds
      << " seeds: the differential-fuzz battery's cache half is vacuous";
  EXPECT_TRUE(convicting.expected) << "broken-adaptive does not truthfully claim S";
  EXPECT_FALSE(convicting.checker.empty());
  EXPECT_FALSE(convicting.explanation.empty());
}

TEST(AdaptiveFuzz, AdaptiveJoinsTheAuditedStrictClass) {
  EXPECT_TRUE(audits_strict_serializability("adaptive"));
  EXPECT_TRUE(audits_strict_serializability("broken-adaptive"));
  const auto cls = strict_serializable_class();
  EXPECT_TRUE(std::find(cls.begin(), cls.end(), "adaptive") != cls.end());
  EXPECT_TRUE(std::find(cls.begin(), cls.end(), "broken-adaptive") != cls.end());
}

}  // namespace
}  // namespace snowkit::fuzz

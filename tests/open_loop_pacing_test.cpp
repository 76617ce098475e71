// Open-loop pacing correctness: absolute deadlines vs coordinated omission,
// the sharded TrafficModel engine, and pause/resume.
//
// The regression pinned here: the pre-fix driver re-armed each arrival timer
// RELATIVE to "after the previous callback ran", so every nanosecond of
// callback latency silently stretched the period — a 0.5 ms completion path
// against a 1 ms interval delivered ~2/3 of the nominal rate and hid the
// backlog from the sojourn histogram (textbook coordinated omission).  With
// absolute deadlines (arrival k due at start + k * interval, catch-up on
// overdue deadlines) the delivered rate stays nominal and lateness is
// CHARGED to sojourn instead of hidden.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "checker/tag_order.hpp"
#include "core/run_workload.hpp"
#include "core/system.hpp"
#include "runtime/thread_runtime.hpp"
#include "sim/sim_runtime.hpp"

namespace snowkit {
namespace {

// Delivered rate must stay within 10% of nominal even when every arrival's
// submission path burns half the arrival budget.  Pre-fix, the period was
// interval + callback (~1.5 ms), the delivered rate ~67% of nominal, and
// this test fails; with absolute-deadline pacing the catch-up loop absorbs
// the callback latency (0.5 ms of work per 1 ms of budget leaves headroom).
//
// A shared 1-core CI box can steal a large slice of the 150 ms measurement
// window, so the rate check gets 3 attempts — the pre-fix stretch is
// SYSTEMATIC (~0.67x nominal on every attempt), so retries keep the
// regression strict while absorbing transient scheduler noise.
TEST(OpenLoopPacing, DeliveredRateSurvivesSlowCallback) {
  const double nominal = 1000.0;  // 1 ms interval.
  double best = 0.0;
  for (int attempt = 0; attempt < 3 && best < 0.9 * nominal; ++attempt) {
    ThreadRuntime rt;
    HistoryRecorder rec(4);
    auto sys = build_protocol("algo-b", rt, rec, SystemConfig{4, 2, 2});
    rt.start();
    WorkloadSpec spec;
    spec.seed = 5;
    DriverOptions opts;
    opts.mode = ArrivalMode::kOpenLoop;
    opts.total_ops = 150;
    opts.arrival_interval_ns = 1'000'000;  // nominal 1000 ops/s.
    opts.read_fraction = 0.5;
    opts.after_arrival = [] { std::this_thread::sleep_for(std::chrono::microseconds(500)); };
    WorkloadDriver driver(rt, *sys, spec, opts);
    driver.start();
    driver.wait();
    rt.stop();
    ASSERT_TRUE(driver.done());
    EXPECT_EQ(driver.arrivals_issued(), 150u);
    const double achieved = driver.achieved_arrival_rate();
    // The absolute-deadline schedule cannot run AHEAD of nominal on any
    // attempt, quiet window or not.
    EXPECT_LE(achieved, 1.1 * nominal);
    best = std::max(best, achieved);
  }
  EXPECT_GE(best, 0.9 * nominal)
      << "coordinated omission: delivered " << best << " ops/s of " << nominal;
}

// A TrafficModel on the simulator: virtual-time pacing, exact counts, green
// tag order — and determinism (the whole point of seeded TrafficShards).
TEST(OpenLoopPacing, EngineModeOnSimIsDeterministic) {
  auto run = [](std::uint64_t seed) {
    SimRuntime sim;
    HistoryRecorder rec(8);
    auto sys = build_protocol("algo-c", sim, rec, SystemConfig{8, 2, 2});
    WorkloadSpec spec;
    spec.seed = seed;
    spec.zipf_theta = 0.9;
    DriverOptions opts;
    opts.mode = ArrivalMode::kOpenLoop;
    opts.total_ops = 60;
    opts.arrival_interval_ns = 10'000;
    TrafficModel model;
    model.zipf_theta = 0.9;
    model.permute_ranks = true;
    model.read_fraction = 0.5;
    model.read_span = SpanDist{SpanKind::kUniform, 1, 3, 0.5};
    model.write_span = SpanDist::fixed(2);
    model.logical_clients = 1'000'000;
    opts.traffic = model;
    opts.arrival_shards = 2;
    WorkloadDriver driver(sim, *sys, spec, opts);
    driver.start();
    sim.run_until_idle();
    EXPECT_TRUE(driver.done());
    EXPECT_EQ(driver.completed_reads() + driver.completed_writes(), 60u);
    const auto verdict = check_tag_order(rec.snapshot());
    EXPECT_TRUE(verdict.ok) << verdict.explanation;
    return sim.trace().to_text();
  };
  EXPECT_EQ(run(21), run(21));
  EXPECT_NE(run(21), run(22));
}

// Sharded engine pacing on wall clock: 4 independent timer chains must
// deliver the aggregate nominal rate, and every arrival must complete.
TEST(OpenLoopPacing, ShardedEngineDeliversAggregateRate) {
  ThreadRuntime rt;
  HistoryRecorder rec(8);
  auto sys = build_protocol("algo-b", rt, rec, SystemConfig{8, 4, 4});
  rt.start();
  WorkloadSpec spec;
  spec.seed = 9;
  DriverOptions opts;
  opts.mode = ArrivalMode::kOpenLoop;
  opts.total_ops = 400;
  opts.arrival_interval_ns = 250'000;  // aggregate nominal 4000 ops/s.
  TrafficModel model;
  model.zipf_theta = 0.99;
  model.permute_ranks = true;
  model.read_fraction = 0.9;
  model.logical_clients = 1'000'000;
  opts.traffic = model;
  opts.arrival_shards = 4;
  WorkloadDriver driver(rt, *sys, spec, opts);
  driver.start();
  driver.wait();
  rt.stop();
  ASSERT_TRUE(driver.done());
  EXPECT_EQ(driver.arrivals_issued(), 400u);
  EXPECT_EQ(driver.completed_reads() + driver.completed_writes(), 400u);
  const double nominal = 1e9 / static_cast<double>(opts.arrival_interval_ns);
  EXPECT_GE(driver.achieved_arrival_rate(), 0.9 * nominal);
  EXPECT_EQ(driver.sojourn_latency().count, 400u);
  const auto verdict = check_tag_order(rec.snapshot());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

// Sampled-Poisson pacing: same nominal rate as the piecewise-constant curve,
// but exponential inter-arrival gaps (CV ~1 instead of exactly 0).  The two
// modes must be STATISTICALLY distinguishable at the same mean, the draws
// must be deterministic per seed, and flipping the flag must not perturb the
// arrival-content stream (the pacer has its own RNG).
TEST(OpenLoopPacing, PoissonGapsShareTheMeanButNotTheShape) {
  constexpr TimeNs kMean = 100'000;  // one segment at 10k ops/s.
  TrafficModel constant;
  constant.rate.segments = {{1e9 / static_cast<double>(kMean), 1'000'000'000}};
  TrafficModel poisson = constant;
  poisson.rate.poisson = true;

  TrafficShard steady(8, constant, /*seed=*/42, 0, 1);
  TrafficShard bursty(8, poisson, /*seed=*/42, 0, 1);

  constexpr std::size_t kDraws = 20'000;
  double sum = 0, sum_sq = 0;
  for (std::size_t i = 0; i < kDraws; ++i) {
    // Piecewise-constant: next_interval IS interval_at, every draw identical.
    ASSERT_EQ(steady.next_interval(0, 1), kMean);
    const auto gap = static_cast<double>(bursty.next_interval(0, 1));
    sum += gap;
    sum_sq += gap * gap;
  }
  const double mean = sum / kDraws;
  const double var = sum_sq / kDraws - mean * mean;
  const double cv = std::sqrt(var) / mean;
  // Exponential: mean = nominal interval, CV = 1.  20k samples put the
  // standard error well under the 10% bands.
  EXPECT_NEAR(mean, static_cast<double>(kMean), 0.05 * kMean)
      << "Poisson pacing drifted off the nominal rate";
  EXPECT_NEAR(cv, 1.0, 0.1) << "gaps are not exponential (piecewise-constant has CV 0)";

  // Determinism: a same-seed shard replays the identical gap sequence.
  TrafficShard replay(8, poisson, /*seed=*/42, 0, 1);
  TrafficShard fresh(8, poisson, /*seed=*/42, 0, 1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(replay.next_interval(0, 1), fresh.next_interval(0, 1));

  // The pacer RNG is dedicated: arrival CONTENT is byte-identical whether or
  // not the pacing draws happened (bursty consumed 20k of them above).
  for (int i = 0; i < 200; ++i) {
    const TrafficArrival a = steady.next();
    const TrafficArrival b = bursty.next();
    EXPECT_EQ(a.is_read, b.is_read);
    EXPECT_EQ(a.logical_client, b.logical_client);
    EXPECT_EQ(a.objects, b.objects);
  }
}

// Poisson pacing rides the absolute-deadline engine unchanged: virtual-time
// run completes every arrival, stays checker-green, and is deterministic.
TEST(OpenLoopPacing, PoissonEngineModeOnSimIsDeterministic) {
  auto run = [](std::uint64_t seed) {
    SimRuntime sim;
    HistoryRecorder rec(8);
    auto sys = build_protocol("algo-c", sim, rec, SystemConfig{8, 2, 2});
    WorkloadSpec spec;
    spec.seed = seed;
    DriverOptions opts;
    opts.mode = ArrivalMode::kOpenLoop;
    opts.total_ops = 60;
    opts.arrival_interval_ns = 10'000;
    TrafficModel model;
    model.read_fraction = 0.5;
    model.logical_clients = 1000;
    model.rate.segments = {{100'000.0, 1'000'000'000}};
    model.rate.poisson = true;
    opts.traffic = model;
    opts.arrival_shards = 2;
    WorkloadDriver driver(sim, *sys, spec, opts);
    driver.start();
    sim.run_until_idle();
    EXPECT_TRUE(driver.done());
    EXPECT_EQ(driver.completed_reads() + driver.completed_writes(), 60u);
    const auto verdict = check_tag_order(rec.snapshot());
    EXPECT_TRUE(verdict.ok) << verdict.explanation;
    return sim.trace().to_text();
  };
  EXPECT_EQ(run(31), run(31));
  EXPECT_NE(run(31), run(32));
}

// A multi-segment RateCurve end to end: the sharded engine on the simulator
// over one cycle of a diurnal wave — plateau 2000/s for 1 s, peak 4000/s for
// 0.5 s, trough 500/s for 0.5 s, 4250 arrivals.  Virtual time makes the
// achieved rate exact, so it must sit on the curve's mean (4250 / 2 s) and
// clear of a flat 2000/s run of the same length: a pacer that read only the
// first segment, or never left it, lands on 2000.
TEST(OpenLoopPacing, DiurnalCurveOnSimDeliversTheCurvesMeanRate) {
  static constexpr std::size_t kCycleArrivals = 2000 + 2000 + 250;
  auto achieved = [](const RateCurve& curve) {
    SimRuntime sim;
    HistoryRecorder rec(8);
    auto sys = build_protocol("algo-c", sim, rec, SystemConfig{8, 2, 2});
    WorkloadSpec spec;
    spec.seed = 7;
    DriverOptions opts;
    opts.mode = ArrivalMode::kOpenLoop;
    opts.total_ops = kCycleArrivals;
    opts.arrival_interval_ns = 500'000;
    TrafficModel model;
    model.zipf_theta = 0.9;
    model.permute_ranks = true;
    model.read_fraction = 0.9;
    model.logical_clients = 1'000'000;
    model.rate = curve;
    opts.traffic = model;
    opts.arrival_shards = 4;
    WorkloadDriver driver(sim, *sys, spec, opts);
    driver.start();
    sim.run_until_idle();
    EXPECT_TRUE(driver.done());
    EXPECT_EQ(driver.arrivals_issued(), kCycleArrivals);
    EXPECT_EQ(driver.completed_reads() + driver.completed_writes(), kCycleArrivals);
    return driver.achieved_arrival_rate();
  };
  RateCurve diurnal;
  diurnal.segments = {{2000.0, 1'000'000'000}, {4000.0, 500'000'000}, {500.0, 500'000'000}};
  RateCurve flat;
  flat.segments = {{2000.0, 1'000'000'000}};

  const double wave = achieved(diurnal);
  EXPECT_EQ(wave, achieved(diurnal)) << "virtual-time pacing must replay exactly";
  const double mean = static_cast<double>(kCycleArrivals) / 2.0;  // 2125 arrivals/s
  EXPECT_NEAR(wave, mean, 0.01 * mean);
  const double steady = achieved(flat);
  EXPECT_NEAR(steady, 2000.0, 0.01 * 2000.0);
  EXPECT_GT(wave - steady, 0.04 * steady) << "the curve's peak and trough left no trace";
}

// pause() must stop issuance, resume() must catch up the missed deadlines,
// and the outage must be charged to sojourn (deadlines keep accruing).
TEST(OpenLoopPacing, PauseResumeCatchesUpAndChargesSojourn) {
  ThreadRuntime rt;
  HistoryRecorder rec(4);
  auto sys = build_protocol("algo-b", rt, rec, SystemConfig{4, 2, 2});
  rt.start();
  WorkloadSpec spec;
  spec.seed = 31;
  DriverOptions opts;
  opts.mode = ArrivalMode::kOpenLoop;
  opts.total_ops = 100;
  opts.arrival_interval_ns = 500'000;
  opts.read_fraction = 0.5;
  WorkloadDriver driver(rt, *sys, spec, opts);
  driver.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  driver.pause();
  const std::size_t at_pause = driver.arrivals_issued();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // Paused: issuance is frozen (the chain idle-polls, at most one tick races
  // the pause flag).
  EXPECT_LE(driver.arrivals_issued(), at_pause + 1);
  driver.resume();
  driver.wait();
  rt.stop();
  ASSERT_TRUE(driver.done());
  EXPECT_EQ(driver.arrivals_issued(), 100u);
  // A 20 ms outage against a 0.5 ms interval: the catch-up burst's sojourn
  // tail must show the outage, not hide it.
  EXPECT_GE(driver.sojourn_latency().p99_ns, 10'000'000u);
}

}  // namespace
}  // namespace snowkit

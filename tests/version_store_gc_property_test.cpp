// Property battery for the watermark-GC'd version store (the pruning-safety
// proof obligation of proto/version_store.hpp):
//
//  1. Randomized interleavings of inserts / finalizes / watermark advances
//     against a keep-everything reference model — GC must never prune a
//     version that a read at or above the watermark could still return
//     (the anchor and everything newer, plus every unfinalized version),
//     and must prune EXACTLY the superseded prefix (determinism).
//  2. Watermarks are monotone: a lower advance is a no-op.
//  3. Chain length stays bounded under sustained writes: live versions <=
//     unfinalized + finalized-above-watermark + 1, independent of history.
//  4. The same obligations for CoorList's history window (anchor + above-W).
//  5. End-to-end: random algo-b/algo-c sim workloads under the GC'd default
//     stay strictly serializable, actually prune (non-vacuity), and keep
//     read responses bounded while the keep-everything baseline grows.
//
// Iteration counts scale with the SNOWKIT_PROP_ITERS environment variable
// (default 300); CI's Release slow leg (ctest -L slow) runs the DISABLED_
// high-iteration sweep with a much larger budget.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <set>

#include "checker/tag_order.hpp"
#include "common/rng.hpp"
#include "core/run_workload.hpp"
#include "core/system.hpp"
#include "metrics/gc_stats.hpp"
#include "proto/version_store.hpp"
#include "sim/sim_runtime.hpp"

namespace snowkit {
namespace {

int prop_iters(int def = 300) {
  const char* env = std::getenv("SNOWKIT_PROP_ITERS");
  if (env == nullptr) return def;
  const int v = std::atoi(env);
  return v > 0 ? v : def;
}

// --- the keep-everything reference model -------------------------------------

struct RefModel {
  struct Entry {
    Value value{kInitialValue};
    std::optional<Tag> position;  ///< finalized List position, if any.
  };
  std::map<WriteKey, Entry> entries{{kInitialKey, {kInitialValue, 0}}};
  Tag watermark{0};

  /// Newest finalized position <= cut (the key a read at `cut` returns).
  WriteKey key_at(Tag cut) const {
    WriteKey best = kInitialKey;
    Tag best_pos = 0;
    for (const auto& [k, e] : entries) {
      if (e.position && *e.position <= cut && *e.position >= best_pos) {
        best = k;
        best_pos = *e.position;
      }
    }
    return best;
  }

  /// Everything the GC'd store MUST retain: unfinalized versions, the anchor
  /// (= key_at(watermark)), and every finalized version above the watermark.
  std::set<WriteKey> must_retain() const {
    std::set<WriteKey> keep;
    for (const auto& [k, e] : entries) {
      if (!e.position || *e.position > watermark) keep.insert(k);
    }
    keep.insert(key_at(watermark));
    return keep;
  }
};

/// One random schedule of store ops, cross-checked against the model after
/// every step.
void run_store_interleaving(std::uint64_t seed, int steps) {
  Xoshiro256 rng(seed);
  VersionStore store;
  RefModel ref;
  Tag next_pos = 1;
  std::vector<WriteKey> unfinalized;

  for (int step = 0; step < steps; ++step) {
    const std::uint64_t dice = rng.below(100);
    if (dice < 40) {  // insert a fresh version
      const WriteKey key{next_pos + rng.below(5), static_cast<NodeId>(rng.below(4))};
      if (ref.entries.count(key) == 0) {
        store.insert(key, static_cast<Value>(step));
        ref.entries[key] = {static_cast<Value>(step), std::nullopt};
        unfinalized.push_back(key);
      }
    } else if (dice < 70 && !unfinalized.empty()) {  // finalize one (listing order)
      const std::size_t i = rng.below(unfinalized.size());
      const WriteKey key = unfinalized[i];
      unfinalized.erase(unfinalized.begin() + static_cast<std::ptrdiff_t>(i));
      store.finalize(key, next_pos);
      ref.entries[key].position = next_pos;
      ++next_pos;
    } else if (dice < 90) {  // advance the watermark (sometimes backwards)
      const Tag w = rng.below(next_pos + 2);
      store.advance_watermark(w);
      ref.watermark = std::max(ref.watermark, std::min(w, store.watermark()));
      // Monotonicity: the store never regresses.
      ASSERT_GE(store.watermark(), ref.watermark);
      ref.watermark = store.watermark();
    } else {  // a read at or above the watermark must still resolve
      const Tag cut = ref.watermark + rng.below(8);
      const WriteKey key = ref.key_at(cut);
      ASSERT_TRUE(store.has(key))
          << "seed " << seed << " step " << step << ": GC pruned " << to_string(key)
          << ", the version a read at cut " << cut << " (watermark " << ref.watermark
          << ") returns";
      ASSERT_EQ(store.get(key), ref.entries.at(key).value);
    }

    // Retention is EXACT: everything the watermark rule requires, nothing
    // more (pruning is deterministic, which the fuzzer's replay relies on).
    const std::set<WriteKey> want = ref.must_retain();
    ASSERT_EQ(store.size(), want.size()) << "seed " << seed << " step " << step;
    for (const WriteKey& k : want) {
      ASSERT_TRUE(store.has(k)) << "seed " << seed << " step " << step << ": lost "
                                << to_string(k);
    }
    // Bounded chain length: live <= unfinalized + finalized-above-W + 1.
    std::size_t above = 0;
    for (const auto& [k, e] : ref.entries) {
      if (e.position && *e.position > ref.watermark) ++above;
    }
    ASSERT_LE(store.size(), unfinalized.size() + above + 1);
  }
}

TEST(VersionStoreGcProperty, RandomInterleavingsNeverPruneAReachableVersion) {
  const int iters = prop_iters();
  for (int seed = 1; seed <= iters; ++seed) {
    run_store_interleaving(static_cast<std::uint64_t>(seed), 120);
    if (HasFatalFailure()) return;
  }
}

TEST(VersionStoreGcProperty, WatermarkIsMonotone) {
  VersionStore store;
  store.insert(WriteKey{1, 0}, 10);
  store.finalize(WriteKey{1, 0}, 1);
  store.insert(WriteKey{2, 0}, 20);
  store.finalize(WriteKey{2, 0}, 2);
  store.advance_watermark(2);
  EXPECT_EQ(store.watermark(), 2u);
  EXPECT_FALSE(store.has(WriteKey{1, 0}));  // superseded below the watermark
  store.advance_watermark(1);               // lower: must be a no-op
  EXPECT_EQ(store.watermark(), 2u);
  store.advance_watermark(0);
  EXPECT_EQ(store.watermark(), 2u);
  EXPECT_TRUE(store.has(WriteKey{2, 0}));
}

TEST(VersionStoreGcProperty, SustainedWritesKeepChainBounded) {
  // A writer loop: insert, finalize, advance.  Without GC this chain would
  // hold all 10'000 versions; with the watermark it never exceeds 2 (the
  // anchor + the one in-flight version).
  VersionStore store;
  std::size_t peak = 0;
  for (Tag pos = 1; pos <= 10'000; ++pos) {
    const WriteKey key{pos, 0};
    store.insert(key, static_cast<Value>(pos));
    peak = std::max(peak, store.size());
    store.finalize(key, pos);
    store.advance_watermark(pos);
  }
  EXPECT_LE(peak, 3u);
  EXPECT_EQ(store.size(), 1u);  // only the anchor survives quiescence
  EXPECT_EQ(store.get(WriteKey{10'000, 0}), 10'000);
  EXPECT_EQ(store.pruned(), 10'000u - 1u + 1u);  // everything but the newest (+kappa_0)
}

TEST(VersionStoreGcProperty, LateFinalizeBelowWatermarkPrunesImmediately) {
  VersionStore store;
  store.insert(WriteKey{1, 0}, 10);
  store.insert(WriteKey{2, 0}, 20);
  store.finalize(WriteKey{2, 0}, 2);
  store.advance_watermark(2);
  EXPECT_TRUE(store.has(WriteKey{1, 0}));  // unfinalized: always retained
  store.finalize(WriteKey{1, 0}, 1);       // late notice, superseded at listing
  EXPECT_FALSE(store.has(WriteKey{1, 0}));
  EXPECT_TRUE(store.has(WriteKey{2, 0}));
}

// --- CoorList ----------------------------------------------------------------

TEST(CoorListProperty, HistoryWindowKeepsAnchorPlusAboveWatermark) {
  const int iters = prop_iters(100);
  for (std::uint64_t seed = 1; seed <= static_cast<std::uint64_t>(iters); ++seed) {
    Xoshiro256 rng(seed);
    const std::size_t k = 2 + rng.below(3);
    CoorList list(k);
    std::vector<std::vector<ListedKey>> full(k);  // reference: everything
    for (std::size_t i = 0; i < k; ++i) full[i].push_back(ListedKey{0, kInitialKey});
    std::vector<Tag> unfinalized;
    std::map<NodeId, Tag> active;  // reader -> floor

    for (int step = 0; step < 80; ++step) {
      const std::uint64_t dice = rng.below(100);
      if (dice < 35) {  // a write lists
        std::vector<std::uint8_t> mask(k, 0);
        mask[rng.below(k)] = 1;
        mask[rng.below(k)] = 1;
        const WriteKey key{static_cast<std::uint64_t>(step + 1), 0};
        const Tag pos = list.push(key, mask);
        for (std::size_t i = 0; i < k; ++i) {
          if (mask[i] != 0) full[i].push_back(ListedKey{pos, key});
        }
        unfinalized.push_back(pos);
      } else if (dice < 60 && !unfinalized.empty()) {  // a write completes
        const std::size_t i = rng.below(unfinalized.size());
        list.finalize(unfinalized[i]);
        unfinalized.erase(unfinalized.begin() + static_cast<std::ptrdiff_t>(i));
      } else if (dice < 80) {  // a read registers
        const NodeId reader = static_cast<NodeId>(100 + rng.below(3));
        active[reader] = list.register_reader(reader, static_cast<TxnId>(step));
      } else if (!active.empty()) {  // a read completes
        auto it = active.begin();
        std::advance(it, rng.below(active.size()));
        list.reader_done(it->first, kInvalidTxn);
        active.erase(it);
      }

      // The watermark never passes an active read's floor.
      for (const auto& [reader, floor] : active) {
        ASSERT_LE(list.watermark(), floor) << "seed " << seed << " step " << step;
      }
      // Per object: the live window is exactly the anchor (newest reference
      // entry <= watermark) plus every entry above the watermark.
      for (std::size_t i = 0; i < k; ++i) {
        const auto& h = list.history(static_cast<ObjectId>(i));
        std::vector<ListedKey> want;
        std::size_t anchor = 0;
        for (std::size_t j = 0; j < full[i].size(); ++j) {
          if (full[i][j].position <= list.watermark()) anchor = j;
        }
        for (std::size_t j = anchor; j < full[i].size(); ++j) want.push_back(full[i][j]);
        ASSERT_EQ(std::vector<ListedKey>(h.begin(), h.end()), want)
            << "seed " << seed << " step " << step << " obj " << i;
        ASSERT_EQ(list.latest(static_cast<ObjectId>(i)), full[i].back().key);
      }
    }
  }
}

TEST(CoorListProperty, StaleReadDoneNeverUnpinsANewerRead) {
  CoorList list(1);
  list.push(WriteKey{1, 0}, std::vector<ObjectId>{0});
  list.finalize(1);
  list.register_reader(7, /*txn=*/10);
  list.reader_done(7, /*txn=*/4);  // reordered notice from an older READ
  list.push(WriteKey{2, 0}, std::vector<ObjectId>{0});
  list.finalize(2);
  EXPECT_EQ(list.watermark(), 1u) << "reader 7's floor must still pin the watermark";
  list.reader_done(7, /*txn=*/10);
  EXPECT_EQ(list.watermark(), 2u);
}

TEST(CoorListProperty, ANewerReadsRegistrationReleasesTheLastOnesFloor) {
  // A reader's next READ registers with no read-done for its last one: the
  // new registration replaces the old floor and advances the watermark.
  CoorList list(1);
  list.push(WriteKey{1, 0}, std::vector<ObjectId>{0});
  list.register_reader(7, /*txn=*/10);  // floor 0
  list.finalize(1);
  EXPECT_EQ(list.watermark(), 0u) << "reader 7's floor must pin the watermark";
  EXPECT_EQ(list.register_reader(7, /*txn=*/11), 1u);
  EXPECT_EQ(list.watermark(), 1u);
}

// --- end-to-end: the GC'd protocols stay safe and actually prune -------------

int run_protocol_once(const std::string& kind, std::uint64_t seed, std::size_t ops,
                      std::uint64_t* pruned) {
  const GcSnapshot before = GcCounters::global().snapshot();
  SimRuntime sim(make_uniform_delay(10, 40'000, seed));
  HistoryRecorder rec(3);
  auto sys = build_protocol(kind, sim, rec, SystemConfig{3, 2, 3});
  WorkloadSpec spec;
  spec.ops_per_reader = ops;
  spec.ops_per_writer = ops;
  spec.read_span = 2;
  spec.write_span = 2;
  spec.seed = seed;
  WorkloadDriver driver(sim, *sys, spec);
  driver.start();
  sim.run_until_idle();
  const History h = rec.snapshot();
  auto verdict = check_tag_order(h);
  EXPECT_TRUE(verdict.ok) << kind << " seed " << seed << ": " << verdict.explanation;
  *pruned += GcCounters::global().snapshot().delta(before).pruned;
  return max_read_versions(h);
}

void run_protocol_sweep(const std::string& kind, std::uint64_t seeds) {
  std::uint64_t pruned_total = 0;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    // Bounded responses, independent of history length: |W| is the writes
    // overlapping a read window, which depends on delay variance but NOT on
    // how long the run is — tripling the op count must not grow responses.
    const int short_run = run_protocol_once(kind, seed, 20, &pruned_total);
    const int long_run = run_protocol_once(kind, seed, 60, &pruned_total);
    ASSERT_LE(long_run, short_run + 4) << kind << " seed " << seed
                                       << ": responses grew with history length";
    ASSERT_LE(long_run, 3 * 4 + 1) << kind << " seed " << seed;  // generous |W|+1 slack
  }
  // Vacuity guard: the sweep must have exercised pruning, not just passed.
  EXPECT_GT(pruned_total, 0u) << kind << ": GC never pruned anything across the sweep";
}

TEST(VersionStoreGcProperty, AlgoCEndToEndSafeAndNonVacuous) {
  run_protocol_sweep("algo-c", 12);
}

TEST(VersionStoreGcProperty, AlgoBEndToEndSafeAndNonVacuous) {
  run_protocol_sweep("algo-b", 12);
}

TEST(VersionStoreGcProperty, OccPessimisticFallbackUnderGcStaysSafe) {
  // occ-reads with BOTH gc_versions and the bounded pessimistic fallback:
  // speculative keys can be pruned (found == false -> validation-failed
  // retry), and after max_optimistic_rounds=1 every contended READ takes the
  // Algorithm-B pessimistic round — whose keys are watermark-protected, the
  // invariant its server-side assert enforces.  Write-heavy contention on
  // few objects makes the fallback fire constantly.
  std::uint64_t pruned_total = 0;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    const GcSnapshot before = GcCounters::global().snapshot();
    SimRuntime sim(make_uniform_delay(10, 40'000, seed));
    HistoryRecorder rec(2);
    BuildOptions opts;
    opts.set("gc_versions", true);
    opts.set("max_optimistic_rounds", 1);
    auto sys = build_protocol("occ-reads", sim, rec, SystemConfig{2, 2, 3}, opts);
    WorkloadSpec spec;
    spec.ops_per_reader = 25;
    spec.ops_per_writer = 40;
    spec.read_span = 2;
    spec.write_span = 2;
    spec.seed = seed;
    WorkloadDriver driver(sim, *sys, spec);
    driver.start();
    sim.run_until_idle();
    const History h = rec.snapshot();
    auto verdict = check_tag_order(h);
    ASSERT_TRUE(verdict.ok) << "occ seed " << seed << ": " << verdict.explanation;
    // The fallback caps rounds at max_optimistic + 1 pessimistic.
    ASSERT_LE(max_read_rounds(h), 2) << "occ seed " << seed;
    pruned_total += GcCounters::global().snapshot().delta(before).pruned;
  }
  EXPECT_GT(pruned_total, 0u) << "occ GC never pruned anything across the sweep";
}

// The CI slow leg (Release, ctest -L slow) runs this with
// SNOWKIT_PROP_ITERS=20000 via --gtest_also_run_disabled_tests; the default
// suite skips it (DISABLED_).  A wall-clock cap keeps the sweep bounded on
// slow build types without weakening the budget on fast ones.
TEST(VersionStoreGcProperty, DISABLED_HighIterationSweep) {
  const int iters = prop_iters(20'000);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(90);
  int done = 0;
  for (int seed = 1; seed <= iters; ++seed) {
    run_store_interleaving(static_cast<std::uint64_t>(seed) * 7919, 160);
    if (HasFatalFailure()) return;
    ++done;
    if (std::chrono::steady_clock::now() >= deadline) break;
  }
  std::printf("[  sweep   ] %d/%d interleavings checked\n", done, iters);
}

}  // namespace
}  // namespace snowkit

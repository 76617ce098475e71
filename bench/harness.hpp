// Unified benchmark harness: a scenario registry (mirroring the
// ProtocolRegistry idiom) plus machine-readable JSON output.
//
// Every bench under bench/ registers itself as a named scenario:
//
//   ScenarioResult run(const ScenarioOptions& opts) { ... }
//   const ScenarioRegistration kReg{"latency", "one-line summary", run};
//
// and the single bench_harness binary runs any of them:
//
//   bench_harness --scenario latency --protocol algo-b --quick
//
// A scenario prints its paper-style tables to stdout (the human artifact,
// unchanged from the old per-bench main()s) AND returns BenchRecords, which
// the harness writes to BENCH_<scenario>.json — one stable, jq-checkable
// schema ("snowkit-bench-v1") that CI uploads per run, so the repo's perf
// trajectory is machine-diffable across PRs.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "metrics/histogram.hpp"

namespace snowkit::bench {

/// One measured configuration inside a scenario run.  Every field is always
/// emitted to JSON (zeros mean "not applicable to this scenario", except the
/// sojourn percentiles, which serialize as `null` unless the scenario
/// actually measured latency — a figure reproduction has no sojourn and a
/// fake 0.000 would read as "instant"); anything scenario-specific goes into
/// `extra` as string key/values.
struct BenchRecord {
  std::string protocol;        ///< registry name.
  std::size_t shards{0};       ///< server-fleet size (0 = n/a).
  std::size_t threads{0};      ///< OS threads (ThreadRuntime nodes; 0 = simulated).
  std::uint64_t ops{0};        ///< completed transactions.
  double ops_per_sec{0};       ///< wall-clock throughput (0 for virtual-time runs).
  bool has_sojourn{false};     ///< set by latency(); false -> nulls in JSON.
  double sojourn_p50_us{0};    ///< client-perceived arrival->completion latency.
  double sojourn_p95_us{0};
  double sojourn_p99_us{0};
  std::uint64_t wire_messages{0};
  std::uint64_t wire_bytes{0};  ///< exact codec bytes (encoded_size) on the wire.
  std::vector<std::pair<std::string, std::string>> extra;

  BenchRecord& set(const std::string& key, std::string value) {
    extra.emplace_back(key, std::move(value));
    return *this;
  }

  /// Fills the sojourn percentile fields from a latency summary.
  BenchRecord& latency(const LatencySummary& s) {
    has_sojourn = true;
    sojourn_p50_us = static_cast<double>(s.p50_ns) / 1000.0;
    sojourn_p95_us = static_cast<double>(s.p95_ns) / 1000.0;
    sojourn_p99_us = static_cast<double>(s.p99_ns) / 1000.0;
    return *this;
  }
};

struct ScenarioResult {
  std::vector<BenchRecord> records;
  /// Scenario-level facts (e.g. "adaptive_p99_max_ratio": "1.09") surfaced at the
  /// top of the JSON for CI gates to jq against.
  std::vector<std::pair<std::string, std::string>> notes;

  void note(const std::string& key, std::string value) {
    notes.emplace_back(key, std::move(value));
  }
};

struct ScenarioOptions {
  bool quick{false};       ///< CI smoke mode: shrink op counts, skip sweeps.
  std::string protocol;    ///< restrict protocol sweeps to one registry name.
  std::uint64_t seed{1};   ///< base seed; scenarios derive fixed per-run seeds.
  /// Offered load in ops/s for scenarios that pace arrivals (net_loopback).
  /// -1 keeps the scenario's default pacing; 0 means "unpaced": a closed-loop
  /// flood that reports the transport's saturation ceiling instead of the
  /// paced sojourn distribution.  Scenarios without pacing ignore it.
  double rate{-1};

  /// True if `kind` passes the --protocol filter.
  bool wants(const std::string& kind) const { return protocol.empty() || protocol == kind; }

  /// `full` scaled down in --quick mode (floor 1).
  std::size_t scaled(std::size_t full, std::size_t divisor = 5) const {
    return quick ? std::max<std::size_t>(1, full / divisor) : full;
  }
};

/// The host's core count as a string — the provenance stamp every record
/// must carry (a cross-host perf diff without it is noise, not signal).
std::string host_cores_string();

/// Stamps "host_cores" into every record that does not already carry one.
/// Scenarios call this once before returning; the harness REJECTS records
/// missing the stamp at emit time (bench_json throws), so a new scenario
/// cannot silently ship unattributed numbers.
void stamp_host_cores(ScenarioResult& result);

using ScenarioFn = std::function<ScenarioResult(const ScenarioOptions&)>;

/// String-keyed scenario registry; same self-registration idiom as the
/// ProtocolRegistry so adding a bench requires zero edits to the harness.
class ScenarioRegistry {
 public:
  static ScenarioRegistry& global();

  void add(std::string name, std::string summary, ScenarioFn fn);

  bool contains(const std::string& name) const;
  std::vector<std::string> names() const;  ///< sorted.
  const std::string& summary(const std::string& name) const;

  /// Runs a scenario; throws std::invalid_argument for unknown names, with
  /// the full registered list (mirrors ProtocolRegistry::build).
  ScenarioResult run(const std::string& name, const ScenarioOptions& opts) const;

 private:
  struct Entry {
    std::string summary;
    ScenarioFn fn;
  };
  const Entry& lookup(const std::string& name) const;
  std::map<std::string, Entry> entries_;
};

/// Static-init registration helper:
///   namespace { const ScenarioRegistration reg{"name", "summary", run}; }
struct ScenarioRegistration {
  ScenarioRegistration(std::string name, std::string summary, ScenarioFn fn);
};

/// Serializes a scenario run as schema "snowkit-bench-v1" and writes it to
/// `<out_dir>/BENCH_<scenario>.json`; returns the path written.
std::string write_bench_json(const std::string& out_dir, const std::string& scenario,
                             const ScenarioOptions& opts, const ScenarioResult& result);

/// The JSON text itself (exposed for tests and --stdout).
std::string bench_json(const std::string& scenario, const ScenarioOptions& opts,
                       const ScenarioResult& result);

}  // namespace snowkit::bench

// Pluggable schedule exploration over SimRuntime's hold/release hooks.
//
// A SchedulePolicy makes the two adversary choices the simulator exposes:
// whether to capture a freshly sent message (should_hold) and what to do at
// each scheduling step (deliver the next queued event, or release one held
// message).  run_scheduled() drives a simulation to quiescence under a
// policy, optionally recording every choice into a ScheduleLog — a compact,
// serializable decision stream.  Replaying a recorded log over the same
// initial conditions (protocol, workload, delay model) reproduces the run
// byte-identically, which is the contract the fuzzer's record/replay and
// shrink machinery (src/fuzz) is built on.
//
// RandomSchedulePolicy reproduces the chaos adversary (sim/chaos.hpp) with
// the exact RNG call order of the original run_chaos loop, so chaos seeds
// keep their meaning.  RecordedSchedulePolicy replays a log; if the log no
// longer matches the run (e.g. after the workload was shrunk), the runner
// falls back to a deterministic drain that preserves liveness.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/buffer.hpp"
#include "common/rng.hpp"
#include "sim/sim_runtime.hpp"

namespace snowkit {

enum class ScheduleDecisionKind : std::uint8_t {
  kStep = 0,     ///< deliver the next queued event.
  kRelease = 1,  ///< release held()[held_index] immediately.
  kCrash = 2,    ///< crash node `held_index` (field reused as a NodeId).
  kRestart = 3,  ///< restart node `held_index` (field reused as a NodeId).
  /// Annotation only: the adaptive coordinator switched an object's fetch
  /// mode at this point in the run (held_index packs (obj << 1) | mode).
  /// Recorded via SimRuntime's switch sink, never applied by the runner —
  /// the deterministic re-execution re-emits the identical entries itself,
  /// so recorded logs still replay byte-for-byte and shrink through ddmin
  /// with the switch history visible in the minimized repro.
  kSwitch = 4,
};

struct ScheduleDecision {
  ScheduleDecisionKind kind{ScheduleDecisionKind::kStep};
  /// Index into sim.held() for kRelease; the victim NodeId for
  /// kCrash/kRestart; (obj << 1) | mode for kSwitch (reusing the field keeps
  /// the log codec unchanged).
  std::uint32_t held_index{0};

  friend bool operator==(const ScheduleDecision&, const ScheduleDecision&) = default;
};

/// The complete record of one scheduled run: per-send hold choices (in send
/// presentation order) plus the decision sequence, including any
/// deterministic drain decisions taken after the policy was exhausted.
struct ScheduleLog {
  std::vector<std::uint8_t> holds;  ///< 0/1 per SimRuntime::send presentation.
  std::vector<ScheduleDecision> decisions;

  friend bool operator==(const ScheduleLog&, const ScheduleLog&) = default;
};

void encode_schedule_log(const ScheduleLog& log, BufWriter& w);

/// Refuses a decision kind above kSwitch (CodecError, which trusted callers
/// turn into an abort and trace files surface as std::invalid_argument).
ScheduleLog decode_schedule_log(BufReader& r);

class SchedulePolicy {
 public:
  virtual ~SchedulePolicy() = default;

  /// Called once per message presentation (SimRuntime::send); true = capture.
  virtual bool should_hold(NodeId from, NodeId to, const Message& m) = 0;

  /// Next decision given current queue/held occupancy.  std::nullopt means
  /// the policy is exhausted: the runner drains deterministically from there.
  virtual std::optional<ScheduleDecision> next(std::size_t pending_events,
                                               std::size_t held_count) = 0;
};

/// The chaos adversary as a policy (same knobs & RNG streams as run_chaos).
class RandomSchedulePolicy final : public SchedulePolicy {
 public:
  RandomSchedulePolicy(std::uint64_t seed, double hold_probability, double release_probability)
      : rng_(seed), hold_rng_(seed ^ 0x9E3779B97F4A7C15ull), hold_p_(hold_probability),
        release_p_(release_probability) {}

  bool should_hold(NodeId, NodeId, const Message&) override { return hold_rng_.chance(hold_p_); }

  std::optional<ScheduleDecision> next(std::size_t pending_events,
                                       std::size_t held_count) override {
    // Short-circuit order matters: it keeps the RNG call sequence identical
    // to the original run_chaos loop, preserving historical seed behaviour.
    if (held_count > 0 && (pending_events == 0 || rng_.chance(release_p_))) {
      return ScheduleDecision{ScheduleDecisionKind::kRelease,
                              static_cast<std::uint32_t>(rng_.below(held_count))};
    }
    return ScheduleDecision{ScheduleDecisionKind::kStep, 0};
  }

 private:
  Xoshiro256 rng_;
  Xoshiro256 hold_rng_;
  double hold_p_;
  double release_p_;
};

/// Replays a recorded ScheduleLog.  Exhausting either stream (holds or
/// decisions) ends the policy; the runner then drains deterministically.
class RecordedSchedulePolicy final : public SchedulePolicy {
 public:
  explicit RecordedSchedulePolicy(ScheduleLog log) : log_(std::move(log)) {}

  bool should_hold(NodeId, NodeId, const Message&) override {
    if (hold_pos_ >= log_.holds.size()) return false;
    return log_.holds[hold_pos_++] != 0;
  }

  std::optional<ScheduleDecision> next(std::size_t, std::size_t) override {
    if (decision_pos_ >= log_.decisions.size()) return std::nullopt;
    return log_.decisions[decision_pos_++];
  }

 private:
  ScheduleLog log_;
  std::size_t hold_pos_{0};
  std::size_t decision_pos_{0};
};

/// Injects one crash (and optionally one restart) into any inner policy's
/// decision stream: at decision `crash_at` it emits {kCrash, victim}; at
/// `restart_at` (if non-zero and later) it emits {kRestart, victim}; every
/// other call delegates to the inner policy.  Because the emitted decisions
/// are recorded in the ScheduleLog like any others, a recorded crash
/// schedule replays byte-identically through RecordedSchedulePolicy with no
/// wrapper at all.
class CrashRestartPolicy final : public SchedulePolicy {
 public:
  CrashRestartPolicy(SchedulePolicy& inner, NodeId victim, std::size_t crash_at,
                     std::size_t restart_at = 0)
      : inner_(inner), victim_(victim), crash_at_(crash_at), restart_at_(restart_at) {}

  bool should_hold(NodeId from, NodeId to, const Message& m) override {
    return inner_.should_hold(from, to, m);
  }

  std::optional<ScheduleDecision> next(std::size_t pending_events,
                                       std::size_t held_count) override {
    const std::size_t i = calls_++;
    if (i == crash_at_) {
      return ScheduleDecision{ScheduleDecisionKind::kCrash, static_cast<std::uint32_t>(victim_)};
    }
    if (restart_at_ != 0 && i == restart_at_) {
      return ScheduleDecision{ScheduleDecisionKind::kRestart,
                              static_cast<std::uint32_t>(victim_)};
    }
    return inner_.next(pending_events, held_count);
  }

 private:
  SchedulePolicy& inner_;
  NodeId victim_;
  std::size_t crash_at_;
  std::size_t restart_at_;
  std::size_t calls_{0};
};

struct ScheduleRunStats {
  std::size_t decisions{0};
  /// True if the runner stopped consulting the policy before quiescence —
  /// max_decisions was hit, or the policy produced an inapplicable decision
  /// (stale held index / step on an empty queue), or it ran out mid-run.
  bool guard_tripped{false};
};

/// Drives `sim` to quiescence (empty queue AND nothing held) under `policy`.
///
/// If `record` is non-null, every hold choice and every applied decision —
/// including deterministic drain decisions — is appended, so replaying the
/// log reproduces the run exactly.  `max_decisions` (0 = unlimited) is the
/// liveness guard: once that many decisions have been applied the policy is
/// abandoned, newly sent messages are no longer held, and the run drains
/// deterministically (release the oldest held message until none remain,
/// then step), so termination is guaranteed for any policy.
ScheduleRunStats run_scheduled(SimRuntime& sim, SchedulePolicy& policy,
                               ScheduleLog* record = nullptr, std::size_t max_decisions = 0);

}  // namespace snowkit

#include "sim/schedule.hpp"

#include <string>

namespace snowkit {

void encode_schedule_log(const ScheduleLog& log, BufWriter& w) {
  w.vec(log.holds, [](BufWriter& w2, std::uint8_t h) { w2.u8(h); });
  w.vec(log.decisions, [](BufWriter& w2, const ScheduleDecision& d) {
    w2.u8(static_cast<std::uint8_t>(d.kind));
    w2.u32(d.held_index);
  });
}

ScheduleLog decode_schedule_log(BufReader& r) {
  ScheduleLog log;
  log.holds = r.vec<std::uint8_t>([](BufReader& r2) { return r2.u8(); });
  log.decisions = r.vec<ScheduleDecision>([](BufReader& r2) {
    const std::uint8_t kind = r2.u8();
    if (kind > static_cast<std::uint8_t>(ScheduleDecisionKind::kSwitch)) {
      r2.fail("bad schedule decision kind " + std::to_string(kind));
    }
    return ScheduleDecision{static_cast<ScheduleDecisionKind>(kind), r2.u32()};
  });
  return log;
}

ScheduleRunStats run_scheduled(SimRuntime& sim, SchedulePolicy& policy, ScheduleLog* record,
                               std::size_t max_decisions) {
  ScheduleRunStats stats;
  bool guard = false;  // once set, the policy is out of the loop for good
  auto prev = sim.hold_matching([&guard, &policy, record](NodeId from, NodeId to,
                                                          const Message& m) {
    const bool hold = !guard && policy.should_hold(from, to, m);
    if (record != nullptr) record->holds.push_back(hold ? 1 : 0);
    return hold;
  });
  // Adaptive mode switches are recorded as kSwitch annotations at their
  // position in the decision stream.  They are a deterministic CONSEQUENCE
  // of the delivery order, not a choice: replay skips them when the policy
  // yields one (below) and the re-execution re-emits the identical entries
  // here, so a replayed record matches the original byte-for-byte.
  if (record != nullptr) {
    sim.set_switch_sink([record](ObjectId obj, int mode) {
      record->decisions.push_back(
          {ScheduleDecisionKind::kSwitch,
           (static_cast<std::uint32_t>(obj) << 1) | static_cast<std::uint32_t>(mode & 1)});
    });
  }

  while (sim.pending_events() > 0 || sim.held_count() > 0) {
    if (!guard && max_decisions != 0 && stats.decisions >= max_decisions) {
      guard = true;
      stats.guard_tripped = true;
    }
    std::optional<ScheduleDecision> d;
    if (!guard) {
      d = policy.next(sim.pending_events(), sim.held_count());
      if (d && d->kind == ScheduleDecisionKind::kSwitch) {
        // Annotation from a recorded log: consume without applying,
        // recording or counting — the live sink re-emits it.
        continue;
      }
      if (!d) {
        // The policy ran out before quiescence (e.g. a truncated recorded
        // log): that IS a trip — the header's contract for guard_tripped.
        guard = true;
        stats.guard_tripped = true;
      }
    }
    if (guard) {
      // Deterministic drain preserving liveness: flush held messages oldest
      // first (each release may trigger new sends, which are no longer
      // held), then step the queue dry.
      d = sim.held_count() > 0 ? ScheduleDecision{ScheduleDecisionKind::kRelease, 0}
                               : ScheduleDecision{ScheduleDecisionKind::kStep, 0};
    } else if ((d->kind == ScheduleDecisionKind::kRelease && d->held_index >= sim.held_count()) ||
               (d->kind == ScheduleDecisionKind::kStep && sim.pending_events() == 0) ||
               (d->kind == ScheduleDecisionKind::kCrash && !sim.can_crash(d->held_index)) ||
               (d->kind == ScheduleDecisionKind::kRestart && !sim.can_restart(d->held_index))) {
      // Inapplicable decision (e.g. a recorded log replayed over a shrunk
      // workload, or a crash aimed at a node that never opted in): abandon
      // the policy rather than guessing at intent.
      guard = true;
      stats.guard_tripped = true;
      continue;
    }
    if (record != nullptr) record->decisions.push_back(*d);
    ++stats.decisions;
    switch (d->kind) {
      case ScheduleDecisionKind::kRelease: sim.release(sim.held()[d->held_index].id); break;
      case ScheduleDecisionKind::kCrash: sim.crash(d->held_index); break;
      case ScheduleDecisionKind::kRestart: sim.restart(d->held_index); break;
      case ScheduleDecisionKind::kStep: sim.step(); break;
      case ScheduleDecisionKind::kSwitch: break;  // unreachable: skipped above
    }
  }

  sim.set_switch_sink(nullptr);
  sim.hold_matching(std::move(prev));
  return stats;
}

}  // namespace snowkit

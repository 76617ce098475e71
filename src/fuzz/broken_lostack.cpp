// broken-lostack: the lost-acknowledged-write bug the crash schedules must
// convict — the replication analogue of broken-stale's vacuity guard.
//
// It is algo-b with crash-tolerant shards, except the primaries ack writers
// IMMEDIATELY instead of waiting for the backup's replication ack
// (Replicator::Config::unsafe_ack).  In failure-free runs it is
// indistinguishable from the real protocol; under a crash schedule that
// kills a primary after it acked a WRITE but before the backup ingested the
// covering log batch, the backup takes over WITHOUT the acknowledged write
// and later reads miss it — the exact bug "acknowledged means replicated"
// exists to prevent.  If the crash-schedule battery
// (tests/replica_fuzz_test.cpp) ever lets broken-lostack run clean, the
// failover fuzzing has gone vacuous and CI fails.
#include "core/registry.hpp"
#include "proto/algo_b/algo_b.hpp"
#include "proto/version_server.hpp"

namespace snowkit {
namespace {

const ProtocolRegistration kRegisterBrokenLostack{
    ProtocolTraits{
        .name = "broken-lostack",
        .summary = "fault-injection stub: replicated algo-b acking before replication — "
                   "crash-schedule vacuity guard",
        .claims_strict_serializability = false,
        .advertises_strict_serializability = true,  // the lie crash schedules must catch
        .provides_tags = true,
        .snow_s = false,
        .snow_n = true,
        .snow_o = true,
        .snow_w = true,
        .mwmr = true,
        .supports_replication = true,
    },
    [](Runtime& rt, HistoryRecorder& rec, const SystemConfig& cfg, const BuildOptions& opts) {
      AlgoBOptions o;
      read_fleet_options(opts, o);
      o.name = "broken-lostack";
      // Always replicated and always unsafe: without a backup to fail over
      // to there is no crash for the schedule to inject, and without the
      // premature ack there is no bug.
      o.replicas = 2;
      o.unsafe_ack = true;
      // GC off: a lost insert plus a later finalize for it would trip the
      // VersionStore presence assert — an abort, not a conviction.  The bug
      // under audit is the lost acknowledged write; keep-everything Vals
      // lets the checkers observe it as a stale read / wedged retry instead
      // of crashing the harness.
      o.gc_versions = false;
      return build_algo_b(rt, rec, cfg, o);
    }};

}  // namespace
}  // namespace snowkit

// broken-adaptive: the adaptive layer with its cache proof removed — the
// differential-fuzz battery's vacuity guard for the client version cache.
//
// It is the REAL adaptive build (src/proto/adaptive) with
// AdaptiveOptions::broken_cache set: a reader serves ANY cached entry for an
// object instead of requiring the cached key to equal latest[obj] in the
// fresh tag array.  Once a second write lands on a cached object, the next
// READ returns the superseded version — a stale read the history checkers
// convict.  Like broken-stale, it ADVERTISES strict serializability while
// the registry truth denies it, so the fuzz oracle audits it and
// tests/adaptive_fuzz_test.cpp must convict it within a handful of seeds;
// if it ever runs clean, the cache-invariant half of the battery has gone
// blind and CI fails.
#include "core/registry.hpp"
#include "proto/adaptive/adaptive.hpp"
#include "proto/version_server.hpp"

namespace snowkit {
namespace {

const ProtocolRegistration kRegisterBrokenAdaptive{
    ProtocolTraits{
        .name = "broken-adaptive",
        .summary = "fault-injection stub: adaptive cache without the watermark "
                   "proof — differential-fuzz vacuity guard",
        .claims_strict_serializability = false,
        .advertises_strict_serializability = true,  // the lie the oracle must catch
        .provides_tags = false,
        .snow_s = false,
        .snow_n = true,
        .snow_o = false,
        .snow_w = true,
        .mwmr = true,
        .supports_replication = true,
        .version_bound = "<=|W|+1",
    },
    [](Runtime& rt, HistoryRecorder& rec, const SystemConfig& cfg, const BuildOptions& opts) {
      AdaptiveOptions o;
      read_fleet_options(opts, o);
      o.broken_cache = true;  // the planted bug
      o.name = "broken-adaptive";
      return build_adaptive(rt, rec, cfg, o);
    }};

}  // namespace
}  // namespace snowkit

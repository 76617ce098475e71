#include "proto/naive/naive.hpp"

#include "core/registry.hpp"
#include "proto/simple/parallel_rw.hpp"

namespace snowkit {

namespace {

const ProtocolRegistration kRegisterNaive{
    ProtocolTraits{
        .name = "naive",
        .summary = "one-round latest-value READ \"transactions\": the SNOW-impossible cell",
        .claims_strict_serializability = false,
        .advertises_strict_serializability = true,  // presents itself as a txn system
        .provides_tags = false,
        .snow_s = false,  // the SNOW Theorem's content: N+O+W here forces !S
        .snow_n = true,
        .snow_o = true,
        .snow_w = true,
        .mwmr = true,
    },
    [](Runtime& rt, HistoryRecorder& rec, const SystemConfig& cfg, const BuildOptions&) {
      return build_naive(rt, rec, cfg);
    }};

}  // namespace

std::unique_ptr<ProtocolSystem> build_naive(Runtime& rt, HistoryRecorder& rec,
                                            const SystemConfig& cfg) {
  return detail::build_parallel("naive", rt, rec, cfg,
                                [] { return std::make_unique<detail::ParallelServer>(); });
}

}  // namespace snowkit

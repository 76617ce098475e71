// broken-stale: a deliberately faulty protocol that guards the fuzzer
// against vacuity.
//
// The server keeps every committed version but serves reads LAGGED a fixed
// number of writes behind the newest one (BuildOptions "lag", default 2) —
// a classic stale-replica bug.  It reuses the simple/naive wire protocol
// and client nodes, and ADVERTISES strict serializability while the
// registry truth denies it, so the fuzz oracle audits it and must convict
// it within a handful of seeds (tests/fuzz_oracle_test.cpp).  If a checker
// or scheduler change ever lets broken-stale run clean, the fuzzer has gone
// blind and CI fails.
#include "common/assert.hpp"
#include "core/registry.hpp"
#include "proto/simple/parallel_rw.hpp"

namespace snowkit {
namespace {

class StaleServer final : public Node {
 public:
  explicit StaleServer(std::size_t lag) : lag_(lag) {}

  void on_message(NodeId from, const Message& m) override {
    if (const auto* w = std::get_if<SimpleWriteReq>(&m.payload)) {
      versions_[w->obj].push_back(w->value);
      send(from, Message{m.txn, SimpleWriteAck{w->obj}});
      return;
    }
    if (const auto* r = std::get_if<SimpleReadReq>(&m.payload)) {
      Value v = kInitialValue;
      if (const auto it = versions_.find(r->obj); it != versions_.end()) {
        const auto& vs = it->second;
        // The bug: ignore the newest `lag_` committed versions.
        v = vs.size() > lag_ ? vs[vs.size() - 1 - lag_] : vs.front();
      }
      send(from, Message{m.txn, SimpleReadResp{r->obj, v}});
      return;
    }
    SNOW_UNREACHABLE("broken-stale server got unexpected payload");
  }

 private:
  std::size_t lag_;
  std::map<ObjectId, std::vector<Value>> versions_;
};

const ProtocolRegistration kRegisterBrokenStale{
    ProtocolTraits{
        .name = "broken-stale",
        .summary = "fault-injection stub: reads lag 2 writes behind — fuzzer vacuity guard",
        .claims_strict_serializability = false,
        .advertises_strict_serializability = true,  // the lie the oracle must catch
        .provides_tags = false,
        .snow_s = false,
        .snow_n = true,
        .snow_o = true,
        .snow_w = true,
        .mwmr = true,
    },
    [](Runtime& rt, HistoryRecorder& rec, const SystemConfig& cfg, const BuildOptions& opts) {
      const auto lag = static_cast<std::size_t>(opts.get_int("lag", 2));
      return detail::build_parallel("broken-stale", rt, rec, cfg,
                                    [lag] { return std::make_unique<StaleServer>(lag); });
    }};

}  // namespace
}  // namespace snowkit

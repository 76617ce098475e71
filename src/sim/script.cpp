#include "sim/script.hpp"

namespace snowkit::script {

Pred hold_all() {
  return [](NodeId, NodeId, const Message&) { return true; };
}

Pred to_node(NodeId to) {
  return [to](NodeId, NodeId t, const Message&) { return t == to; };
}

Pred from_node(NodeId from) {
  return [from](NodeId f, NodeId, const Message&) { return f == from; };
}

Pred between(NodeId from, NodeId to) {
  return [from, to](NodeId f, NodeId t, const Message&) { return f == from && t == to; };
}

Pred payload_is(std::string name) {
  return [name = std::move(name)](NodeId, NodeId, const Message& m) {
    return name == payload_name(m.payload);
  };
}

Pred of_txn(TxnId txn) {
  return [txn](NodeId, NodeId, const Message& m) { return m.txn == txn; };
}

Pred asks_tag_arr() {
  return [](NodeId, NodeId, const Message& m) {
    const auto* batch = std::get_if<ReadValsBatchReq>(&m.payload);
    return std::holds_alternative<GetTagArrReq>(m.payload) || (batch && batch->tag_arr);
  };
}

Pred all_of(std::vector<Pred> preds) {
  return [preds = std::move(preds)](NodeId f, NodeId t, const Message& m) {
    for (const auto& p : preds) {
      if (!p(f, t, m)) return false;
    }
    return true;
  };
}

Pred any_of(std::vector<Pred> preds) {
  return [preds = std::move(preds)](NodeId f, NodeId t, const Message& m) {
    for (const auto& p : preds) {
      if (p(f, t, m)) return true;
    }
    return false;
  };
}

Pred negate(Pred p) {
  return [p = std::move(p)](NodeId f, NodeId t, const Message& m) { return !p(f, t, m); };
}

bool release_one(SimRuntime& sim, const Pred& p) {
  for (const auto& h : sim.held()) {
    if (p(h.from, h.to, h.msg)) return sim.release(h.id);
  }
  return false;
}

bool release_one_and_drain(SimRuntime& sim, const Pred& p) {
  if (!release_one(sim, p)) return false;
  sim.run_until_idle();
  return true;
}

}  // namespace snowkit::script

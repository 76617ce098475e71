// Predicate combinators for scripting adversarial schedules.
//
// The impossibility figures are produced by holding specific messages and
// releasing them in a chosen order; these helpers make those scripts read
// like the paper's prose ("delay m_y^{r1} until s_x has responded...").
#pragma once

#include <initializer_list>
#include <string>
#include <vector>

#include "sim/sim_runtime.hpp"

namespace snowkit::script {

using Pred = SimRuntime::HoldPredicate;

Pred hold_all();
Pred to_node(NodeId to);
Pred from_node(NodeId from);
Pred between(NodeId from, NodeId to);
Pred payload_is(std::string name);
Pred of_txn(TxnId txn);
/// A READ's request for the coordinator's tag array: a standalone
/// get-tag-arr, or a read-vals-batch carrying one (coor set).
Pred asks_tag_arr();
Pred all_of(std::vector<Pred> preds);
Pred any_of(std::vector<Pred> preds);
Pred negate(Pred p);

/// Releases the first held message matching `p`; returns false if none held.
bool release_one(SimRuntime& sim, const Pred& p);

/// Releases one matching message and runs the sim until idle (other messages
/// may still be held).  Returns false if nothing matched.
bool release_one_and_drain(SimRuntime& sim, const Pred& p);

}  // namespace snowkit::script

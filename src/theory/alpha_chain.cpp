#include "theory/alpha_chain.hpp"

#include <sstream>

#include "checker/serializability.hpp"
#include "common/assert.hpp"
#include "proto/algo_a/algo_a.hpp"
#include "sim/script.hpp"
#include "sim/sim_runtime.hpp"
#include "theory/commute.hpp"

namespace snowkit::theory {

namespace {

// SystemConfig: s_x = node 0, s_y = node 1, r1 = node 2, r2 = node 3, w = node 4.
constexpr NodeId kSx = 0;
constexpr NodeId kSy = 1;
constexpr NodeId kR1 = 2;
constexpr NodeId kR2 = 3;
constexpr Value kX1 = 101;
constexpr Value kY1 = 102;

std::string values_str(const TxnResult& r) {
  std::ostringstream oss;
  oss << "(";
  for (std::size_t i = 0; i < r.values.size(); ++i) {
    if (i) oss << ",";
    oss << (r.values[i].second == kInitialValue
                ? (r.values[i].first == 0 ? "x0" : "y0")
                : (r.values[i].first == 0 ? "x1" : "y1"));
  }
  oss << ")";
  return oss.str();
}

struct ScriptedRun {
  Trace trace;
  History history;
  TxnId r1_txn{kInvalidTxn};
  TxnId r2_txn{kInvalidTxn};
  std::string r1_values;
  std::string r2_values;
  bool r2_before_r1{false};  ///< RESP(R2) precedes INV(R1) in real time.
};

/// Runs Algorithm A with two readers under a scripted schedule.
/// `release_order` is the sequence of (from, to) read-traffic releases after
/// both (or, for invoke_r1_late, one) READ invocations; for the alpha_10
/// realization R1 is invoked only after R2 completed.
ScriptedRun run_scripted(const std::vector<std::pair<NodeId, NodeId>>& pre_r1_releases,
                         const std::vector<std::pair<NodeId, NodeId>>& post_r1_releases,
                         bool invoke_r1_after_r2_completes) {
  SimRuntime sim;
  HistoryRecorder rec(2);
  AlgoAOptions opts;
  opts.allow_multiple_readers = true;
  auto sys = build_algo_a(sim, rec, SystemConfig{2, 2, 1}, opts);
  sim.start();

  // Hold r1's info-reader (the pivotal a_{k*+1}) and all read traffic.
  sim.hold_matching(script::any_of(
      {script::all_of({script::payload_is("info-reader"), script::to_node(kR1)}),
       script::payload_is("read-val-batch"), script::payload_is("read-val-batch-resp")}));

  // W writes (x1, y1); it stays open until r1's info-reader is released.
  bool w_done = false;
  invoke_write(sim, sys->writer(0), {{0, kX1}, {1, kY1}}, [&](const TxnResult&) { w_done = true; });
  sim.run_until_idle();
  SNOW_CHECK_MSG(!w_done, "W must be pending on r1's info-reader ack");

  ScriptedRun out;
  TxnResult r1_result;
  TxnResult r2_result;
  bool r1_done = false;
  bool r2_done = false;

  // I2: invoke R2; its request sends appear, deliveries stay held.
  invoke_read(sim, sys->reader(1), {0, 1}, [&](const TxnResult& r) {
    r2_result = r;
    r2_done = true;
  });
  sim.run_until_idle();

  auto do_releases = [&](const std::vector<std::pair<NodeId, NodeId>>& order) {
    for (const auto& [from, to] : order) {
      SNOW_CHECK_MSG(script::release_one_and_drain(sim, script::between(from, to)),
                     "script could not release " << from << "->" << to);
    }
  };

  do_releases(pre_r1_releases);
  if (invoke_r1_after_r2_completes) SNOW_CHECK(r2_done);

  // I1: invoke R1.
  invoke_read(sim, sys->reader(0), {0, 1}, [&](const TxnResult& r) {
    r1_result = r;
    r1_done = true;
  });
  sim.run_until_idle();

  do_releases(post_r1_releases);

  SNOW_CHECK(r1_done && r2_done);
  // Suffix S: release the held info-reader so W completes (the W property).
  sim.release_all();
  sim.run_until_idle();
  SNOW_CHECK(w_done);

  out.trace = sim.trace();
  out.history = rec.snapshot();
  for (const auto& t : out.history.txns) {
    if (!t.is_read) continue;
    if (t.client == kR1) out.r1_txn = t.id;
    if (t.client == kR2) out.r2_txn = t.id;
  }
  out.r1_values = values_str(r1_result);
  out.r2_values = values_str(r2_result);
  const TxnRecord* rec1 = out.history.find(out.r1_txn);
  const TxnRecord* rec2 = out.history.find(out.r2_txn);
  out.r2_before_r1 = History::precedes(*rec2, *rec1);
  return out;
}

struct Frags {
  Fragment i1, i2, f1x, f1y, f2x, f2y, e1, e2;
  std::vector<Fragment> all() const { return {i1, i2, f1x, f1y, f2x, f2y, e1, e2}; }
};

Frags extract_all(const Trace& t, TxnId r1, TxnId r2) {
  Frags f;
  auto req = [&](std::optional<Fragment> of, const char* what) {
    SNOW_CHECK_MSG(of.has_value(), "could not extract fragment " << what);
    return *of;
  };
  f.i1 = req(extract_invocation_fragment(t, r1, kR1, "I1"), "I1");
  f.i2 = req(extract_invocation_fragment(t, r2, kR2, "I2"), "I2");
  f.f1x = req(extract_server_fragment(t, r1, kSx, "F1x"), "F1x");
  f.f1y = req(extract_server_fragment(t, r1, kSy, "F1y"), "F1y");
  f.f2x = req(extract_server_fragment(t, r2, kSx, "F2x"), "F2x");
  f.f2y = req(extract_server_fragment(t, r2, kSy, "F2y"), "F2y");
  f.e1 = req(extract_response_fragment(t, r1, kR1, "E1"), "E1");
  f.e2 = req(extract_response_fragment(t, r2, kR2, "E2"), "E2");
  return f;
}

}  // namespace

AlphaChainResult run_alpha_chain() {
  AlphaChainResult result;

  // --- alpha_6 (Lemma 10): I2 ◦ I1 ◦ F1x ◦ F2y ◦ F1y ◦ E1 ◦ F2x ◦ E2,
  // R1 -> (x0,y0), R2 -> (x1,y1).
  ScriptedRun a6 = run_scripted(
      /*pre_r1_releases=*/{},
      /*post_r1_releases=*/
      {{kR1, kSx},   // F1x
       {kR2, kSy},   // F2y
       {kR1, kSy},   // F1y
       {kSx, kR1},   // E1 begins: deliver x to r1
       {kSy, kR1},   // E1 completes: deliver y, RESP(R1)
       {kR2, kSx},   // F2x
       {kSy, kR2},   // E2 begins
       {kSx, kR2}},  // E2 completes
      /*invoke_r1_after_r2_completes=*/false);
  Frags f6 = extract_all(a6.trace, a6.r1_txn, a6.r2_txn);
  result.steps.push_back(ChainStep{"alpha6", "scripted schedule (Lemma 10 form)",
                                   fragment_order_string(f6.all()), a6.r1_values, a6.r2_values,
                                   a6.r1_values == "(x0,y0)" && a6.r2_values == "(x1,y1)",
                                   "adversary holds r1's info-reader (action a_{k*+1})"});

  // --- alpha_7 (Lemma 11): transpose E1 with F2x, then F1y with F2x.
  CommuteResult c1 = commute(a6.trace, f6.e1, f6.f2x);
  SNOW_CHECK_MSG(c1.ok, "commute(E1,F2x): " << c1.why);
  Frags f7a = extract_all(c1.trace, a6.r1_txn, a6.r2_txn);
  CommuteResult c2 = commute(c1.trace, f7a.f1y, f7a.f2x);
  SNOW_CHECK_MSG(c2.ok, "commute(F1y,F2x): " << c2.why);
  Frags f7 = extract_all(c2.trace, a6.r1_txn, a6.r2_txn);
  result.steps.push_back(ChainStep{"alpha7", "Lemma 2 transpositions: E1<->F2x, F1y<->F2x",
                                   fragment_order_string(f7.all()), a6.r1_values, a6.r2_values,
                                   true, "well-formed; all automata indistinguishable"});

  // --- alpha_8 (Lemma 12): move F2y before F1x and before I1.
  CommuteResult c3 = commute(c2.trace, f7.f1x, f7.f2y);
  SNOW_CHECK_MSG(c3.ok, "commute(F1x,F2y): " << c3.why);
  Frags f8a = extract_all(c3.trace, a6.r1_txn, a6.r2_txn);
  CommuteResult c4 = commute(c3.trace, f8a.i1, f8a.f2y);
  SNOW_CHECK_MSG(c4.ok, "commute(I1,F2y): " << c4.why);
  Frags f8 = extract_all(c4.trace, a6.r1_txn, a6.r2_txn);
  result.steps.push_back(ChainStep{"alpha8", "Lemma 2 transpositions: F1x<->F2y, I1<->F2y",
                                   fragment_order_string(f8.all()), a6.r1_values, a6.r2_values,
                                   true, ""});

  // --- alpha_9 (Lemma 13): F2x and F1x both occur at s_x, so Lemma 2 does
  // not apply; the paper re-constructs the execution with the network
  // delivering r2's request to s_x first.  We rerun the script with that
  // order and check server indistinguishability of the per-version replies.
  ScriptedRun a9 = run_scripted(
      /*pre_r1_releases=*/{{kR2, kSy}},  // F2y right after I2
      /*post_r1_releases=*/
      {{kR2, kSx},   // F2x (before F1x: the Lemma-13 reordering)
       {kR1, kSx},   // F1x
       {kR1, kSy},   // F1y
       {kSx, kR1},
       {kSy, kR1},   // E1
       {kSy, kR2},
       {kSx, kR2}},  // E2
      /*invoke_r1_after_r2_completes=*/false);
  Frags f9 = extract_all(a9.trace, a9.r1_txn, a9.r2_txn);
  const bool a9_ok = a9.r1_values == a6.r1_values && a9.r2_values == a6.r2_values;
  result.steps.push_back(ChainStep{"alpha9", "network re-construction: F2x before F1x (Lemma 13)",
                                   fragment_order_string(f9.all()), a9.r1_values, a9.r2_values,
                                   a9_ok, "same returned versions as alpha8 (Lemma 3)"});

  // --- alpha_10 (Lemma 14): transpose I1 with F2x, then move E2 before the
  // whole of R1.
  CommuteResult c5 = commute(a9.trace, f9.i1, f9.f2x);
  SNOW_CHECK_MSG(c5.ok, "commute(I1,F2x): " << c5.why);
  Trace t10 = std::move(c5.trace);
  for (const char* frag : {"E1", "F1y", "F1x", "I1"}) {
    Frags cur = extract_all(t10, a9.r1_txn, a9.r2_txn);
    const Fragment& g1 = std::string(frag) == "E1"   ? cur.e1
                         : std::string(frag) == "F1y" ? cur.f1y
                         : std::string(frag) == "F1x" ? cur.f1x
                                                      : cur.i1;
    CommuteResult c = commute(t10, g1, cur.e2);
    SNOW_CHECK_MSG(c.ok, "commute(" << frag << ",E2): " << c.why);
    t10 = std::move(c.trace);
  }
  Frags f10 = extract_all(t10, a9.r1_txn, a9.r2_txn);
  result.steps.push_back(ChainStep{"alpha10", "Lemma 2 transpositions: R2 wholly before R1",
                                   fragment_order_string(f10.all()), a9.r1_values, a9.r2_values,
                                   true, "R2 completes before R1 is invoked"});

  // --- Runnable alpha_10: actually execute the derived schedule.  R2
  // completes (x1,y1) before R1 is invoked; R1 then returns (x0,y0).
  ScriptedRun areal = run_scripted(
      /*pre_r1_releases=*/
      {{kR2, kSy}, {kR2, kSx}, {kSy, kR2}, {kSx, kR2}},  // R2 runs to RESP
      /*post_r1_releases=*/
      {{kR1, kSx}, {kR1, kSy}, {kSx, kR1}, {kSy, kR1}},  // then R1
      /*invoke_r1_after_r2_completes=*/true);
  SNOW_CHECK(areal.r2_before_r1);
  auto verdict = check_strict_serializability(areal.history);
  result.s_violated = !verdict.ok;
  result.violation = verdict.explanation;
  result.final_history = areal.history;
  result.steps.push_back(ChainStep{
      "alpha10*", "runnable realization of alpha10's schedule",
      "P ◦ R2 ◦ R1 ◦ S", areal.r1_values, areal.r2_values, !verdict.ok,
      verdict.ok ? "UNEXPECTED: serializable" : ("S violated: " + verdict.explanation)});
  return result;
}

}  // namespace snowkit::theory

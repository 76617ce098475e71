#include "theory/two_client_chain.hpp"

#include <sstream>

#include "checker/serializability.hpp"
#include "common/assert.hpp"
#include "proto/naive/naive.hpp"
#include "sim/script.hpp"
#include "sim/sim_runtime.hpp"

namespace snowkit::theory {

namespace {

constexpr Value kX1 = 201;
constexpr Value kY1 = 202;

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

struct DescentRun {
  std::string read_values;
  History history;
  std::string event_at;  ///< automaton of the k-th W network event.
};

/// Invokes W and R concurrently, delivers exactly `k` of W's network events,
/// then releases R's (held) requests and drains.  Returns what R read and at
/// which automaton the k-th event occurred.
DescentRun run_descent(int k) {
  SimRuntime sim;
  HistoryRecorder rec(2);
  auto sys = build_naive(sim, rec, SystemConfig{2, 1, 1});
  sim.start();
  // Hold all READ traffic; W's messages flow normally but we step them.
  sim.hold_matching(script::any_of(
      {script::payload_is("simple-read"), script::payload_is("simple-read-resp")}));

  bool w_done = false;
  bool r_done = false;
  TxnResult r_result;
  invoke_write(sim, sys->writer(0), {{0, kX1}, {1, kY1}}, [&](const TxnResult&) { w_done = true; });
  invoke_read(sim, sys->reader(0), {0, 1}, [&](const TxnResult& r) {
    r_result = r;
    r_done = true;
  });

  // Let both invocation tasks run: R's two request sends are then held and
  // W's messages sit in the queue, none delivered yet.
  SNOW_CHECK(sim.run_until([&] { return sim.held_count() == 2; }));

  DescentRun out;
  // Step until k message deliveries (Recv actions) of W have occurred.
  int delivered = 0;
  while (delivered < k) {
    const std::size_t before = sim.trace().size();
    SNOW_CHECK_MSG(sim.step(), "descent ran out of W events at k=" << k);
    for (std::size_t i = before; i < sim.trace().size(); ++i) {
      if (sim.trace()[i].kind == ActionKind::Recv) {
        ++delivered;
        out.event_at = "n" + std::to_string(sim.trace()[i].node) +
                       (sim.trace()[i].node < 2 ? " (server)" : " (client)");
      }
    }
  }
  // Deliver R's requests now (a_{k} boundary), then drain everything.
  // Stop holding first so the servers' responses flow normally.
  sim.hold_matching(nullptr);
  sim.release_all();
  sim.run_until_idle();
  SNOW_CHECK(w_done && r_done);
  out.read_values = values_str(r_result);
  out.history = rec.snapshot();
  return out;
}

}  // namespace

TwoClientChainResult run_two_client_chain() {
  TwoClientChainResult result;

  // --- alpha / beta (Lemmas 15-16): W completes, then R's requests are sent
  // together and delivered one at a time: F1x then F1y; R returns (x1,y1).
  {
    SimRuntime sim;
    HistoryRecorder rec(2);
    auto sys = build_naive(sim, rec, SystemConfig{2, 1, 1});
    sim.start();
    bool w_done = false;
    invoke_write(sim, sys->writer(0), {{0, kX1}, {1, kY1}},
                 [&](const TxnResult&) { w_done = true; });
    sim.run_until_idle();
    SNOW_CHECK(w_done);
    sim.hold_matching(script::payload_is("simple-read"));
    TxnResult r_result;
    bool r_done = false;
    invoke_read(sim, sys->reader(0), {0, 1}, [&](const TxnResult& r) {
      r_result = r;
      r_done = true;
    });
    sim.run_until_idle();  // both sends held: the consecutive send actions of Lemma 15(i)
    script::release_one_and_drain(sim, script::to_node(0));  // F1x
    result.steps.push_back(TwoClientStep{"alpha", "W complete; send(m_x),send(m_y) consecutive; F1x delivered",
                                         "-", !r_done, "s_x responded non-blocking with x1"});
    script::release_one_and_drain(sim, script::to_node(1));  // F1y
    SNOW_CHECK(r_done);
    result.steps.push_back(TwoClientStep{"beta", "alpha extended by F1y (Lemma 16)",
                                         values_str(r_result),
                                         values_str(r_result) == "(x1,y1)", "R returns (x1,y1)"});
  }

  // --- gamma / eta (Lemmas 17-19): R is invoked BEFORE W; its requests sit
  // in the network until after RESP(W); R still returns (x1,y1).
  {
    SimRuntime sim;
    HistoryRecorder rec(2);
    auto sys = build_naive(sim, rec, SystemConfig{2, 1, 1});
    sim.start();
    sim.hold_matching(script::payload_is("simple-read"));
    TxnResult r_result;
    bool r_done = false;
    invoke_read(sim, sys->reader(0), {0, 1}, [&](const TxnResult& r) {
      r_result = r;
      r_done = true;
    });
    sim.run_until_idle();  // send(m_x), send(m_y) occur before INV(W)
    bool w_done = false;
    invoke_write(sim, sys->writer(0), {{0, kX1}, {1, kY1}},
                 [&](const TxnResult&) { w_done = true; });
    sim.run_until_idle();
    SNOW_CHECK(w_done && !r_done);
    sim.release_all();
    sim.run_until_idle();
    SNOW_CHECK(r_done);
    result.steps.push_back(TwoClientStep{
        "gamma/eta", "send actions moved before INV(W); F1x,F1y delivered after RESP(W)",
        values_str(r_result), values_str(r_result) == "(x1,y1)",
        "R invoked before W yet returns (x1,y1) — Lemma 18"});
  }

  // --- delta descent: deliver R's requests after exactly k W-events.
  std::string prev = "(x0,y0)";
  for (int k = 0; k <= 4; ++k) {
    DescentRun run = run_descent(k);
    std::ostringstream name;
    name << "delta(k=" << k << ")";
    auto fracture = find_fractured_read(run.history);
    TwoClientStep step;
    step.name = name.str();
    step.description = "R's requests delivered after " + std::to_string(k) + " W events";
    step.read_values = run.read_values;
    step.verified = true;
    if (!fracture.empty()) {
      step.note = "FRACTURED: " + fracture;
      if (!result.fracture_found) {
        result.fracture_found = true;
        result.fracture = fracture;
      }
    }
    if (result.flip_k < 0 && run.read_values == "(x1,y1)" && prev != "(x1,y1)") {
      result.flip_k = k;
      result.flip_location = run.event_at;
      step.note += (step.note.empty() ? "" : "; ") + ("flip boundary: a_k at " + run.event_at);
    }
    prev = run.read_values;
    result.steps.push_back(std::move(step));
  }
  return result;
}

}  // namespace snowkit::theory

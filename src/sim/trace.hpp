// Action traces: the simulator's record of an execution.
//
// The paper reasons about executions as sequences of actions at I/O automata
// (send/recv at clients and servers, plus INV/RESP of transactions).  The
// simulator records exactly those actions, so the theory machinery
// (src/theory) can identify the execution fragments I_i, F_{i,j}, E_i of §3
// and perform the Lemma-2 fragment commutes mechanically.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "msg/message.hpp"

namespace snowkit {

enum class ActionKind : std::uint8_t {
  Invoke,   ///< INV(T) at a client.
  Respond,  ///< RESP(T) at a client.
  Send,     ///< send(m)_{node,peer} at `node`.
  Recv,     ///< recv(m)_{peer,node} at `node`.
  Crash,    ///< `node` crashes (volatile state lost; deliveries dropped).
  Restart,  ///< `node` restarts (recovers from its WAL, rejoins as backup).
};

const char* action_kind_name(ActionKind k);

/// One action of an execution.  `node` is the automaton at which the action
/// occurs; for Send/Recv, `peer` is the other endpoint.
struct Action {
  ActionKind kind{ActionKind::Invoke};
  TimeNs time{0};
  NodeId node{kInvalidNode};
  NodeId peer{kInvalidNode};
  TxnId txn{kInvalidTxn};
  std::string msg;     ///< payload name for Send/Recv ("" otherwise).
  std::uint64_t msg_seq{0};  ///< matches a Send to its Recv (0 for non-msg).
  int versions{0};     ///< object versions carried (read responses only).

  bool is_input() const { return kind == ActionKind::Recv || kind == ActionKind::Invoke; }
  bool is_external() const { return true; }  // all recorded actions are external
};

std::string to_string(const Action& a);

/// An execution trace: the sequence of external actions, in order.
class Trace {
 public:
  void append(Action a) { actions_.push_back(std::move(a)); }
  const std::vector<Action>& actions() const { return actions_; }
  std::size_t size() const { return actions_.size(); }
  const Action& operator[](std::size_t i) const { return actions_[i]; }
  void clear() { actions_.clear(); }

  /// Projection onto one automaton: indices of actions occurring at `node`.
  std::vector<std::size_t> at_node(NodeId node) const;

  /// All actions belonging to a transaction.
  std::vector<std::size_t> of_txn(TxnId txn) const;

  /// Index of the first action matching a predicate, if any.
  template <typename Pred>
  std::optional<std::size_t> find(Pred&& pred, std::size_t from = 0) const {
    for (std::size_t i = from; i < actions_.size(); ++i) {
      if (pred(actions_[i])) return i;
    }
    return std::nullopt;
  }

  std::string to_text() const;

 private:
  std::vector<Action> actions_;
};

/// Binary trace codec (same Buffer machinery as the wire codec).  Two runs
/// are byte-identical executions iff their encoded traces compare equal —
/// the determinism contract the fuzzer's record/replay machinery pins.
std::vector<std::uint8_t> encode_trace(const Trace& t);
/// Decodes untrusted bytes (a merged audit file's trace): every malformation,
/// trailing bytes and an action kind above `last_kind` included, throws
/// CodecError (a std::invalid_argument) prefixed with `context`.
Trace decode_trace(const std::vector<std::uint8_t>& bytes, std::string_view context,
                   ActionKind last_kind);
/// Decodes TRUSTED bytes (our own encode_trace's): malformation aborts.
Trace decode_trace(const std::vector<std::uint8_t>& bytes);

/// FNV-1a fingerprint of encode_trace(t); stored in fuzz trace files so a
/// replay can assert byte-identical reproduction without shipping the trace.
std::uint64_t trace_fingerprint(const Trace& t);

/// True if `t` is a well-formed execution: every Recv has a matching earlier
/// Send with the same msg_seq, endpoints, and payload name.
bool well_formed(const Trace& t, std::string* why = nullptr);

/// True if the two traces are indistinguishable at `node` (same subsequence
/// of actions at that automaton, ignoring global positions and times) —
/// the ~ relation of Appendix A restricted to recorded actions.
bool indistinguishable_at(const Trace& a, const Trace& b, NodeId node);

}  // namespace snowkit

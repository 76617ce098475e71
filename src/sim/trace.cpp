#include "sim/trace.hpp"

#include <map>
#include <sstream>

#include "common/assert.hpp"
#include "common/buffer.hpp"

namespace snowkit {

const char* action_kind_name(ActionKind k) {
  switch (k) {
    case ActionKind::Invoke: return "INV";
    case ActionKind::Respond: return "RESP";
    case ActionKind::Send: return "send";
    case ActionKind::Recv: return "recv";
    case ActionKind::Crash: return "CRASH";
    case ActionKind::Restart: return "RESTART";
  }
  return "?";
}

std::string to_string(const Action& a) {
  std::ostringstream oss;
  oss << action_kind_name(a.kind) << "@n" << a.node;
  if (a.kind == ActionKind::Send || a.kind == ActionKind::Recv) {
    oss << (a.kind == ActionKind::Send ? "->n" : "<-n") << a.peer << " " << a.msg;
  }
  if (a.txn != kInvalidTxn) oss << " txn=" << a.txn;
  oss << " t=" << a.time;
  return oss.str();
}

std::vector<std::size_t> Trace::at_node(NodeId node) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < actions_.size(); ++i) {
    if (actions_[i].node == node) out.push_back(i);
  }
  return out;
}

std::vector<std::size_t> Trace::of_txn(TxnId txn) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < actions_.size(); ++i) {
    if (actions_[i].txn == txn) out.push_back(i);
  }
  return out;
}

std::string Trace::to_text() const {
  std::ostringstream oss;
  for (std::size_t i = 0; i < actions_.size(); ++i) {
    oss << i << ": " << to_string(actions_[i]) << "\n";
  }
  return oss.str();
}

std::vector<std::uint8_t> encode_trace(const Trace& t) {
  BufWriter w;
  w.vec(t.actions(), [](BufWriter& w2, const Action& a) {
    w2.u8(static_cast<std::uint8_t>(a.kind));
    w2.u64(a.time);
    w2.u32(a.node);
    w2.u32(a.peer);
    w2.u64(a.txn);
    w2.str(a.msg);
    w2.u64(a.msg_seq);
    w2.u32(static_cast<std::uint32_t>(a.versions));
  });
  return w.take();
}

Trace decode_trace(const std::vector<std::uint8_t>& bytes, std::string_view context,
                   ActionKind last_kind) {
  BufReader r(bytes, context);
  Trace t;
  for (std::size_t n = r.count(r.u32()); n > 0; --n) {
    Action a;
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(last_kind)) {
      r.fail("bad action kind " + std::to_string(kind));
    }
    a.kind = static_cast<ActionKind>(kind);
    a.time = r.u64();
    a.node = r.u32();
    a.peer = r.u32();
    a.txn = r.u64();
    a.msg = r.str();
    a.msg_seq = r.u64();
    a.versions = static_cast<int>(r.u32());
    t.append(std::move(a));
  }
  if (!r.done()) r.fail("trailing bytes");
  return t;
}

Trace decode_trace(const std::vector<std::uint8_t>& bytes) {
  // Trusted in-process bytes (roundtrips of our own encode_trace): a
  // malformation means our encoder or memory is corrupt.
  try {
    return decode_trace(bytes, {}, ActionKind::Restart);
  } catch (const CodecError& e) {
    SNOW_UNREACHABLE("decode_trace on trusted bytes failed: " + std::string(e.what()));
  }
}

std::uint64_t trace_fingerprint(const Trace& t) {
  const auto bytes = encode_trace(t);
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001B3ull;
  }
  return h;
}

bool well_formed(const Trace& t, std::string* why) {
  std::map<std::uint64_t, std::size_t> sends;  // msg_seq -> index
  for (std::size_t i = 0; i < t.size(); ++i) {
    const Action& a = t[i];
    if (a.kind == ActionKind::Send) {
      sends[a.msg_seq] = i;
    } else if (a.kind == ActionKind::Recv) {
      auto it = sends.find(a.msg_seq);
      if (it == sends.end()) {
        if (why) *why = "recv at index " + std::to_string(i) + " has no earlier send";
        return false;
      }
      const Action& s = t[it->second];
      if (s.node != a.peer || s.peer != a.node || s.msg != a.msg) {
        if (why) *why = "recv at index " + std::to_string(i) + " mismatches its send";
        return false;
      }
    }
  }
  return true;
}

bool indistinguishable_at(const Trace& a, const Trace& b, NodeId node) {
  auto ia = a.at_node(node);
  auto ib = b.at_node(node);
  if (ia.size() != ib.size()) return false;
  for (std::size_t i = 0; i < ia.size(); ++i) {
    const Action& x = a[ia[i]];
    const Action& y = b[ib[i]];
    if (x.kind != y.kind || x.peer != y.peer || x.txn != y.txn || x.msg != y.msg) return false;
  }
  return true;
}

}  // namespace snowkit

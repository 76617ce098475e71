#include "audit/merge.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <stdexcept>
#include <tuple>

#include "common/buffer.hpp"
#include "runtime/fleet.hpp"

namespace snowkit::audit {

namespace {

/// One event annotated with merge state.
struct MEvent {
  AuditEvent e;
  std::uint32_t process{0};
  std::uint64_t msg_seq{0};   ///< assigned during pairing (unique per Send).
  std::size_t match{SIZE_MAX};  ///< Recv -> index of its Send.
  bool excluded{false};       ///< Recv with no Send: not emitted.
};

/// Global merge order used for pairing and as the k-way tiebreak: time,
/// then capture stream identity for determinism.
bool merge_before(const MEvent& a, const MEvent& b) {
  return std::tie(a.e.time, a.process, a.e.ring, a.e.seq) <
         std::tie(b.e.time, b.process, b.e.ring, b.e.seq);
}

Action to_action(const MEvent& m) {
  Action a;
  a.kind = m.e.kind == EventKind::kSend ? ActionKind::Send : ActionKind::Recv;
  a.time = m.e.time;
  a.node = m.e.node;
  a.peer = m.e.peer;
  a.txn = m.e.txn;
  a.msg = m.e.payload;
  a.msg_seq = m.msg_seq;
  a.versions = static_cast<int>(m.e.versions);
  return a;
}

}  // namespace

MergedAudit merge_chunks(const std::vector<ChunkFile>& chunks,
                         const std::string& fleet_override) {
  if (chunks.empty()) throw std::invalid_argument("merge: no chunks given");

  MergedAudit out;
  out.protocol = chunks[0].meta.protocol;
  out.num_servers = chunks[0].meta.num_servers;
  std::vector<std::uint32_t> procs;
  for (const ChunkFile& c : chunks) {
    if (c.meta.protocol != out.protocol) {
      throw std::invalid_argument("merge: chunks from different runs (protocol '" +
                                  c.meta.protocol + "' vs '" + out.protocol + "')");
    }
    if (c.meta.num_servers != out.num_servers) {
      throw std::invalid_argument("merge: chunks disagree on server count");
    }
    if (!c.meta.fleet_text.empty()) {
      if (out.fleet_text.empty()) {
        out.fleet_text = c.meta.fleet_text;
      } else if (out.fleet_text != c.meta.fleet_text) {
        throw std::invalid_argument("merge: chunks embed different fleet configs");
      }
    }
    if (c.history) {
      if (out.history) {
        throw std::invalid_argument(
            "merge: two history snapshots — chunks from more than one run?");
      }
      out.history = c.history;
    }
    out.total_drops += c.drops;
    if (std::find(procs.begin(), procs.end(), c.meta.process_index) == procs.end()) {
      procs.push_back(c.meta.process_index);
    }
  }
  out.processes = static_cast<std::uint32_t>(procs.size());

  // Event attribution check against the fleet's owner map: a capture is
  // only trustworthy if every event it recorded occurred at a node the
  // fleet actually places on that process.
  const std::string& fleet_src = fleet_override.empty() ? out.fleet_text : fleet_override;
  std::optional<FleetConfig> fleet;
  if (!fleet_src.empty()) fleet = parse_fleet_text(fleet_src);
  std::uint64_t misattributed = 0;

  std::vector<MEvent> events;
  for (const ChunkFile& c : chunks) {
    for (const AuditEvent& e : c.events) {
      if (fleet && fleet->owner_of(e.node) != c.meta.process_index) {
        if (++misattributed <= 3) {
          out.warnings.push_back("event at node " + std::to_string(e.node) +
                                 " captured by process " +
                                 std::to_string(c.meta.process_index) +
                                 " but the fleet places that node on process " +
                                 std::to_string(fleet->owner_of(e.node)));
        }
      }
      events.push_back(MEvent{e, c.meta.process_index});
    }
  }
  if (misattributed > 3) {
    out.warnings.push_back("... " + std::to_string(misattributed - 3) +
                           " more misattributed events");
  }
  out.total_events = events.size();

  // ---- pairing: oldest unmatched Send with the same link/txn/payload ----
  std::vector<std::size_t> order(events.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return merge_before(events[a], events[b]); });

  // Sends on a link all originate at one node, i.e. one executor thread,
  // i.e. one ring — so per-link FIFO order IS ring order, and likewise for
  // Recvs at the receiver.  Pairing therefore runs in two passes: collect
  // every Send first, then match Recvs in receiver order.  (A single
  // time-ordered pass would unmatch a Recv whose observer stamp races ahead
  // of its Send's — the two stamps come from different threads.)
  using PairKey = std::tuple<NodeId, NodeId, TxnId, std::string>;  // from, to, txn, payload
  std::map<PairKey, std::deque<std::size_t>> open_sends;
  std::uint64_t next_msg_seq = 1;
  for (std::size_t i : order) {
    MEvent& m = events[i];
    if (m.e.kind != EventKind::kSend) continue;
    m.msg_seq = next_msg_seq++;
    open_sends[PairKey{m.e.node, m.e.peer, m.e.txn, m.e.payload}].push_back(i);
  }
  for (std::size_t i : order) {
    MEvent& m = events[i];
    if (m.e.kind != EventKind::kRecv) continue;
    auto it = open_sends.find(PairKey{m.e.peer, m.e.node, m.e.txn, m.e.payload});
    if (it == open_sends.end() || it->second.empty()) {
      // Its Send was overwritten in the sender's ring (or sampled out): an
      // unwitnessed delivery can't enter a well-formed trace.
      m.excluded = true;
      ++out.unmatched_recvs;
      continue;
    }
    m.match = it->second.front();
    it->second.pop_front();
    m.msg_seq = events[m.match].msg_seq;
  }
  for (const auto& [key, q] : open_sends) {
    (void)key;
    out.unmatched_sends += q.size();
  }

  // ---- k-way merge: pop ring heads in time order, holding back any Recv
  // whose matched Send has not been emitted yet.  Popping only ring heads
  // preserves per-node program order exactly.
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::deque<std::size_t>> ring_queues;
  for (std::size_t i : order) {
    const MEvent& m = events[i];
    ring_queues[{m.process, m.e.ring}].push_back(i);
  }
  std::vector<std::deque<std::size_t>*> queues;
  for (auto& [key, q] : ring_queues) {
    (void)key;
    queues.push_back(&q);
  }
  std::vector<bool> emitted(events.size(), false);
  std::uint64_t held_back_dropped = 0;
  for (;;) {
    std::deque<std::size_t>* best = nullptr;
    std::deque<std::size_t>* best_ineligible = nullptr;
    for (auto* q : queues) {
      // Skip excluded events eagerly so they never block a queue.
      while (!q->empty() && events[q->front()].excluded) q->pop_front();
      if (q->empty()) continue;
      const MEvent& head = events[q->front()];
      const bool eligible = head.e.kind == EventKind::kSend || emitted[head.match];
      auto*& slot = eligible ? best : best_ineligible;
      if (slot == nullptr || merge_before(head, events[(*slot).front()])) slot = q;
    }
    if (best != nullptr) {
      const std::size_t i = best->front();
      best->pop_front();
      emitted[i] = true;
      out.trace.append(to_action(events[i]));
    } else if (best_ineligible != nullptr) {
      // Every queue head is a Recv waiting on a Send stuck behind another
      // waiting Recv — only possible when drops or clock anomalies corrupted
      // the record.  Break the cycle by discarding the earliest waiter.
      MEvent& m = events[best_ineligible->front()];
      m.excluded = true;
      ++out.unmatched_recvs;
      ++held_back_dropped;
      best_ineligible->pop_front();
    } else {
      break;
    }
  }
  if (held_back_dropped > 0) {
    out.warnings.push_back(std::to_string(held_back_dropped) +
                           " recvs discarded to break a send/recv ordering cycle");
  }
  return out;
}

std::vector<std::uint8_t> encode_merged(const MergedAudit& m) {
  BufWriter w;
  w.str(kMergedSchema);
  w.str(m.protocol);
  w.u32(m.num_servers);
  w.str(m.fleet_text);
  w.u8(m.history ? 1 : 0);
  std::vector<std::uint8_t> out = w.take();
  if (m.history) encode_history(*m.history, out);
  BufWriter w2;
  // The trace rides as a blob of the sim trace codec — byte-compatible with
  // trace_fingerprint, so a merged file pins the exact trace it checked.
  const auto trace_bytes = encode_trace(m.trace);
  w2.str(std::string(reinterpret_cast<const char*>(trace_bytes.data()), trace_bytes.size()));
  w2.u64(m.total_events);
  w2.u64(m.total_drops);
  w2.u32(m.processes);
  w2.u64(m.unmatched_recvs);
  w2.u64(m.unmatched_sends);
  w2.cvec(m.warnings, [](BufWriter& w3, const std::string& s) { w3.str(s); });
  const auto tail = w2.take();
  out.insert(out.end(), tail.begin(), tail.end());
  seal(out);
  return out;
}

MergedAudit decode_merged(const std::vector<std::uint8_t>& bytes, const std::string& context) {
  verify_seal(bytes, context);
  BufReader r(bytes, context);
  const std::string schema = r.str();
  if (schema != kMergedSchema) {
    throw std::invalid_argument(context + ": unknown schema '" + schema + "' (expected " +
                                kMergedSchema + ")");
  }
  MergedAudit m;
  m.protocol = r.str();
  m.num_servers = r.u32();
  m.fleet_text = r.str();
  if (r.u8() != 0) m.history = decode_history(r);
  {
    // The sim trace codec's blob; audits capture sends and receives only.
    const std::string blob = r.str();
    m.trace = decode_trace(std::vector<std::uint8_t>(blob.begin(), blob.end()),
                           context + ": trace", ActionKind::Recv);
  }
  m.total_events = r.u64();
  m.total_drops = r.u64();
  m.processes = r.u32();
  m.unmatched_recvs = r.u64();
  m.unmatched_sends = r.u64();
  m.warnings = r.cvec<std::string>([](BufReader& r2) { return r2.str(); });
  (void)r.u64();  // fingerprint — verified above
  (void)r.u64();  // end magic
  if (!r.done()) r.fail("trailing bytes after trailer");
  return m;
}

MergedAudit load_inputs(const std::vector<std::string>& paths,
                        const std::string& fleet_override) {
  if (paths.empty()) throw std::invalid_argument("no input files given");
  if (paths.size() == 1) {
    const auto bytes = read_file(paths[0]);
    if (peek_schema(bytes) == kMergedSchema) return decode_merged(bytes, paths[0]);
  }
  std::vector<ChunkFile> chunks;
  chunks.reserve(paths.size());
  for (const std::string& p : paths) chunks.push_back(load_chunk(p));
  return merge_chunks(chunks, fleet_override);
}

}  // namespace snowkit::audit

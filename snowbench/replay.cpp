// Layer replay: the workload's protocol and traffic on a single-threaded
// runtime that delivers FIFO in virtual time and times every call into the
// codec (encode_message_into, try_decode_message) and every node handler
// (Node::on_message), per payload.  A handler's self time excludes the
// encode calls it makes through send().  The same traffic then sizes
// microbenchmarks of the framing layer (FrameDecoder, WriteCoalescer), the
// version store (VersionStore, CoorList) and the WAL (FileWal).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <stdexcept>

#include "msg/codec.hpp"
#include "proto/replica.hpp"
#include "proto/version_store.hpp"
#include "runtime/socket.hpp"
#include "runtime/transport_options.hpp"
#include "suite.hpp"

namespace snowkit::suite {
namespace {

using Clock = std::chrono::steady_clock;

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

/// One timed call: a decode, handler, encode or posted task.
struct Span {
  const char* kind;
  const char* payload;
  double start_ns;
  double end_ns;
  TxnId txn;
  std::int64_t parent;  ///< index of the enclosing span, -1 for roots.
  NodeId node;
};

struct PayloadCost {
  std::vector<double> handle_ns;  ///< handler self time per delivery.
  std::vector<double> codec_ns;   ///< encode + decode per message.
  double bytes{0};
  std::uint64_t msgs{0};
};

class ReplayRuntime final : public Runtime {
 public:
  static constexpr TimeNs kHopNs = 100'000;  ///< constant hop: FIFO per pair.

  explicit ReplayRuntime(NodeId servers) : servers_(servers), origin_(Clock::now()) {}

  void send(NodeId from, NodeId to, Message m) override {
    const auto a = Clock::now();
    encode_message_into(m, scratch_);
    const auto b = Clock::now();
    const double ns = ns_between(a, b);
    nested_ns_ += ns;
    const char* payload = payload_name(m.payload);
    spans_.push_back({"encode", payload, rel(a), rel(b), m.txn, current_, from});
    PayloadCost& c = cost_[payload];
    c.bytes += static_cast<double>(scratch_.size());
    ++c.msgs;
    encode_ns_ += ns;
    bytes_ += static_cast<double>(scratch_.size());
    frames_.emplace_back();
    net::append_msg(frames_.back(), from, to, m);
    Event ev;
    ev.from = from;
    ev.to = to;
    ev.bytes = scratch_;
    ev.encode_ns = ns;
    ev.payload = payload;
    queue_.emplace(std::pair{now_ + kHopNs, seq_++}, std::move(ev));
  }

  void post(NodeId node, std::function<void()> fn) override { post_after(node, 0, std::move(fn)); }

  void post_after(NodeId node, TimeNs delay_ns, std::function<void()> fn) override {
    Event ev;
    ev.to = node;
    ev.task = std::move(fn);
    queue_.emplace(std::pair{now_ + delay_ns, seq_++}, std::move(ev));
  }

  TimeNs now_ns() const override { return now_; }

  void run() {
    for (NodeId id = 0; id < node_count(); ++id) {
      timed("start", "", kInvalidTxn, id, [&] { start_node(id); });
    }
    while (!queue_.empty()) {
      auto node = queue_.extract(queue_.begin());
      now_ = node.key().first;
      Event& ev = node.mapped();
      if (ev.task) {
        timed("task", "", kInvalidTxn, ev.to, ev.task);
        continue;
      }
      Message msg;
      std::string err;
      const auto a = Clock::now();
      const bool ok = try_decode_message(ev.bytes, msg, err);
      const auto b = Clock::now();
      if (!ok) throw std::runtime_error("replay: undecodable " + std::string(ev.payload) + ": " + err);
      const double decode = ns_between(a, b);
      decode_ns_ += decode;
      spans_.push_back({"decode", ev.payload, rel(a), rel(b), msg.txn, -1, ev.to});
      const double self =
          timed("handle", ev.payload, msg.txn, ev.to, [&] { deliver_to(ev.from, ev.to, msg); });
      PayloadCost& c = cost_[ev.payload];
      c.handle_ns.push_back(self);
      c.codec_ns.push_back(ev.encode_ns + decode);
      TxnCost& t = by_txn_[msg.txn];
      t.handle_ns += self;
      t.codec_ns += ev.encode_ns + decode;
      t.bytes += static_cast<double>(ev.bytes.size());
    }
  }

  /// Handler self time, codec time and encoded bytes of the messages
  /// carrying one transaction id (kInvalidTxn: replication and other
  /// background traffic).
  struct TxnCost {
    double handle_ns{0};
    double codec_ns{0};
    double bytes{0};
  };

  const std::map<std::string, PayloadCost>& cost() const { return cost_; }
  const std::map<TxnId, TxnCost>& by_txn() const { return by_txn_; }
  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::vector<std::uint8_t>>& frames() const { return frames_; }
  double encode_ns() const { return encode_ns_; }
  double decode_ns() const { return decode_ns_; }
  double bytes() const { return bytes_; }
  double server_self_ns() const { return server_self_ns_; }
  double client_self_ns() const { return client_self_ns_; }

 private:
  struct Event {
    NodeId from{kInvalidNode};
    NodeId to{kInvalidNode};
    std::vector<std::uint8_t> bytes;
    double encode_ns{0};
    const char* payload{""};
    std::function<void()> task;
  };

  double rel(Clock::time_point t) const { return ns_between(origin_, t); }

  /// Runs `fn` as a root span on `node`; returns its self time (wall time
  /// minus the encode calls made inside it) and charges it to the node's side.
  template <class Fn>
  double timed(const char* kind, const char* payload, TxnId txn, NodeId node, Fn&& fn) {
    current_ = static_cast<std::int64_t>(spans_.size());
    spans_.push_back({kind, payload, 0, 0, txn, -1, node});
    nested_ns_ = 0;
    const auto a = Clock::now();
    fn();
    const auto b = Clock::now();
    Span& s = spans_[static_cast<std::size_t>(current_)];
    s.start_ns = rel(a);
    s.end_ns = rel(b);
    current_ = -1;
    const double self = ns_between(a, b) - nested_ns_;
    // Clients are registered right after the servers; replicas 2 adds backup
    // servers after the clients.
    const bool server = node < servers_ || node >= servers_ + kClientNodes;
    (server ? server_self_ns_ : client_self_ns_) += self;
    return self;
  }

  const NodeId servers_;
  const Clock::time_point origin_;
  TimeNs now_{0};
  std::uint64_t seq_{0};
  std::map<std::pair<TimeNs, std::uint64_t>, Event> queue_;
  std::vector<std::uint8_t> scratch_;
  std::int64_t current_{-1};
  double nested_ns_{0};
  std::map<std::string, PayloadCost> cost_;
  std::map<TxnId, TxnCost> by_txn_;
  std::vector<Span> spans_;
  std::vector<std::vector<std::uint8_t>> frames_;
  double encode_ns_{0}, decode_ns_{0}, bytes_{0};
  double server_self_ns_{0}, client_self_ns_{0};
};

void write_spans(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "{\"id\":%zu,\"parent\":", i);
    if (s.parent < 0) {
      std::fputs("null", f);
    } else {
      std::fprintf(f, "%lld", static_cast<long long>(s.parent));
    }
    std::fprintf(f, ",\"name\":\"%s%s%s\",\"node\":%u,\"txn\":", s.kind, *s.payload ? ":" : "",
                 s.payload, s.node);
    if (s.txn == kInvalidTxn) {
      std::fputs("null", f);
    } else {
      std::fprintf(f, "%llu", static_cast<unsigned long long>(s.txn));
    }
    std::fprintf(f, ",\"start_ns\":%.0f,\"end_ns\":%.0f}\n", s.start_ns, s.end_ns);
  }
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

/// Median over `reps` runs of fn(), which returns ns per item.
template <class Fn>
double median_of(int reps, Fn&& fn) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) v.push_back(fn());
  return median(v);
}

void framing_microbench(const std::vector<std::vector<std::uint8_t>>& frames, Metrics& m) {
  if (frames.empty()) return;
  std::vector<std::uint8_t> stream;
  for (const auto& f : frames) stream.insert(stream.end(), f.begin(), f.end());
  const double n = static_cast<double>(frames.size());
  const TransportOptions t;  // the transport's default read chunk and caps
  const std::size_t chunk = t.read_chunk_bytes;

  m["net.frame_decode_ns_per_frame"] = median_of(5, [&] {
    net::FrameDecoder dec;
    net::Frame frame;
    std::size_t popped = 0;
    const auto a = Clock::now();
    for (std::size_t off = 0; off < stream.size(); off += chunk) {
      dec.feed(stream.data() + off, std::min(chunk, stream.size() - off));
      while (dec.next(frame) == net::FrameDecoder::Status::kFrame) ++popped;
    }
    const auto b = Clock::now();
    if (popped != frames.size()) throw std::runtime_error("replay: frame decoder lost frames");
    return ns_between(a, b) / n;
  });

  m["net.coalesce_ns_per_frame"] = median_of(5, [&] {
    std::vector<std::vector<std::uint8_t>> copies = frames;
    net::WriteCoalescer q;
    q.set_limits(t.coalesce_max_frames, t.coalesce_max_bytes);
    std::vector<net::IoSlice> slices(t.coalesce_max_frames);
    const auto a = Clock::now();
    for (auto& f : copies) q.push(std::move(f));
    while (!q.empty()) {
      const std::size_t k = q.gather(slices.data(), slices.size());
      std::size_t bytes = 0;
      for (std::size_t i = 0; i < k; ++i) bytes += slices[i].len;
      q.consume(bytes);
    }
    const auto b = Clock::now();
    return ns_between(a, b) / n;
  });
}

/// Version store and coordinator List driven by the replay's own history:
/// every WRITE inserts, lists, finalizes and advances the watermark; every
/// READ re-registers its reader (one READ in flight per reader, which is
/// what pins the watermark) and fetches the latest key of each object.
Metrics store_pass(const History& h, std::size_t objects) {
  std::vector<const TxnRecord*> order;
  for (const TxnRecord& t : h.txns) {
    if (t.complete) order.push_back(&t);
  }
  std::sort(order.begin(), order.end(), [](const TxnRecord* a, const TxnRecord* b) {
    return a->invoke_order < b->invoke_order;
  });

  std::map<ObjectId, VersionStore> stores;
  CoorList list(objects);
  std::map<NodeId, std::uint64_t> next_seq;
  std::map<NodeId, TxnId> in_flight;
  std::map<std::string, std::pair<double, double>> sum;  // name -> (ns, calls)
  const auto time_call = [&sum](const char* name, auto&& fn) {
    const auto a = Clock::now();
    fn();
    const auto b = Clock::now();
    auto& s = sum[name];
    s.first += ns_between(a, b);
    s.second += 1;
  };
  Value sink = 0;
  for (const TxnRecord* t : order) {
    if (!t->is_read) {
      const WriteKey key{++next_seq[t->client], t->client};
      std::vector<std::uint8_t> mask(objects, 0);
      for (const auto& [obj, value] : t->writes) {
        mask[obj] = 1;
        VersionStore& s = stores.try_emplace(obj).first->second;
        time_call("version_store.insert_ns", [&] { s.insert(key, value); });
      }
      Tag pos = 0;
      time_call("coor_list.push_ns", [&] { pos = list.push(key, mask); });
      for (const auto& [obj, value] : t->writes) {
        time_call("version_store.finalize_ns", [&] { stores.at(obj).finalize(key, pos); });
      }
      list.finalize(pos);
      const Tag watermark = list.watermark();
      for (const auto& [obj, value] : t->writes) {
        time_call("version_store.advance_watermark_ns",
                  [&] { stores.at(obj).advance_watermark(watermark); });
      }
    } else {
      if (const auto it = in_flight.find(t->client); it != in_flight.end()) {
        list.reader_done(t->client, it->second);
      }
      time_call("coor_list.register_reader_ns", [&] { list.register_reader(t->client, t->id); });
      in_flight[t->client] = t->id;
      for (const auto& [obj, value] : t->reads) {
        VersionStore& s = stores.try_emplace(obj).first->second;
        const WriteKey key = list.latest(obj);
        time_call("version_store.try_get_ns", [&] { sink += s.try_get(key).value_or(0); });
      }
    }
  }
  Metrics m;
  for (const auto& [name, s] : sum) m[name] = s.second > 0 ? s.first / s.second : 0;
  double retained = static_cast<double>(objects - stores.size());  // untouched: initial version
  for (const auto& [obj, s] : stores) retained += static_cast<double>(s.size());
  m["version_store.retained_per_object"] = retained / static_cast<double>(objects);
  m["coor_list.entries_end"] = static_cast<double>(list.entries());
  [[maybe_unused]] static volatile Value observed;  // keeps the try_get results live
  observed = sink;
  return m;
}

/// FileWal append + fdatasync of single-record batches, in the order a
/// primary logs the history's WRITEs (insert per object, List push,
/// finalize per object, coordinator finalize).  Bounded by count and time.
Metrics wal_pass(const History& h, const std::string& path) {
  std::vector<ReplRecord> records;
  for (const TxnRecord& t : h.txns) {
    if (t.is_read || !t.complete) continue;
    for (const auto& [obj, value] : t.writes) {
      ReplRecord r;
      r.kind = ReplRecord::kInsert;
      r.obj = obj;
      r.key = WriteKey{t.id, t.client};
      r.value = value;
      records.push_back(r);
    }
    ReplRecord push;
    push.kind = ReplRecord::kListPush;
    push.key = WriteKey{t.id, t.client};
    push.txn = t.id;
    push.writer = t.client;
    records.push_back(push);
    for (const auto& [obj, value] : t.writes) {
      ReplRecord r;
      r.kind = ReplRecord::kFinalize;
      r.obj = obj;
      r.key = WriteKey{t.id, t.client};
      records.push_back(r);
    }
    ReplRecord fin;
    fin.kind = ReplRecord::kCoorFinalize;
    records.push_back(fin);
  }

  std::vector<double> us;
  {
    FileWal wal(path);
    wal.append(std::vector<std::uint8_t>(kWalMagic, kWalMagic + kWalMagicLen));  // opens the file
    const auto deadline = Clock::now() + std::chrono::seconds(1);
    for (std::size_t i = 0; i < records.size() && us.size() < 400 && Clock::now() < deadline;
         ++i) {
      ReplAppendReq batch;
      batch.epoch = 1;
      batch.first_seq = i;
      batch.records.push_back(records[i]);
      const std::vector<std::uint8_t> bytes = wal_frame_batch(batch);
      const auto a = Clock::now();
      wal.append(bytes);
      const auto b = Clock::now();
      us.push_back(ns_between(a, b) / 1e3);
    }
  }
  std::error_code ec;
  std::filesystem::remove(path, ec);
  return {{"replica.wal_append_fsync_p50_us", quantile(us, 0.50)},
          {"replica.wal_append_fsync_p99_us", quantile(us, 0.99)}};
}

}  // namespace

Metrics run_layer_replay(const Workload& w, std::uint64_t seed, std::size_t ops,
                         const std::string& work_dir, const std::string& spans_path) {
  ReplayRuntime rt(static_cast<NodeId>(kShards));
  HistoryRecorder rec(w.objects);
  auto sys = build_protocol(w.protocol, rt, rec, system_config(w), build_options(w));
  WorkloadSpec spec;
  spec.seed = seed;
  WorkloadDriver driver(rt, *sys, spec, driver_options(w, ops));
  driver.start();
  rt.run();
  if (!driver.done()) throw std::runtime_error("replay: not every operation completed");
  const History h = rec.snapshot();
  const double n = static_cast<double>(driver.completed_reads() + driver.completed_writes());

  Metrics m;
  double msgs = 0;
  for (const std::string& p : tracked_payloads()) {
    const auto it = rt.cost().find(p);
    const bool seen = it != rt.cost().end() && it->second.msgs > 0;
    m["proto.handle_ns." + p] = seen ? median(it->second.handle_ns) : 0;
    m["msg.codec_ns." + p] = seen ? median(it->second.codec_ns) : 0;
    m["msg.bytes." + p] = seen ? it->second.bytes / static_cast<double>(it->second.msgs) : 0;
  }
  for (const auto& [p, c] : rt.cost()) msgs += static_cast<double>(c.msgs);
  m["msg.encode_ns_per_op"] = rt.encode_ns() / n;
  m["msg.decode_ns_per_op"] = rt.decode_ns() / n;
  m["msg.bytes_per_msg"] = msgs > 0 ? rt.bytes() / msgs : 0;
  m["proto.server_self_ns_per_op"] = rt.server_self_ns() / n;
  m["proto.client_self_ns_per_op"] = rt.client_self_ns() / n;

  // Work per transaction kind: messages carrying a READ's id are charged to
  // the READs; the rest (WRITEs, finalization, replication) to the WRITEs.
  std::map<TxnId, bool> is_read;
  for (const TxnRecord& t : h.txns) is_read[t.id] = t.is_read;
  ReplayRuntime::TxnCost reads, writes;
  for (const auto& [txn, c] : rt.by_txn()) {
    const auto it = is_read.find(txn);
    ReplayRuntime::TxnCost& side = it != is_read.end() && it->second ? reads : writes;
    side.handle_ns += c.handle_ns;
    side.codec_ns += c.codec_ns;
    side.bytes += c.bytes;
  }
  const double nr = std::max<double>(1, static_cast<double>(driver.completed_reads()));
  const double nw = std::max<double>(1, static_cast<double>(driver.completed_writes()));
  m["proto.read_handle_ns_per_read"] = reads.handle_ns / nr;
  m["proto.write_handle_ns_per_write"] = writes.handle_ns / nw;
  m["msg.read_codec_ns_per_read"] = reads.codec_ns / nr;
  m["msg.write_codec_ns_per_write"] = writes.codec_ns / nw;
  m["msg.read_bytes_per_read"] = reads.bytes / nr;
  m["msg.write_bytes_per_write"] = writes.bytes / nw;

  framing_microbench(rt.frames(), m);
  std::vector<Metrics> passes;
  for (int i = 0; i < 3; ++i) passes.push_back(store_pass(h, w.objects));
  for (const auto& [name, value] : passes[0]) {
    m[name] = median({value, passes[1].at(name), passes[2].at(name)});
  }
  for (const auto& [name, value] : wal_pass(h, work_dir + "/replay.wal")) m[name] = value;

  write_spans(rt.spans(), spans_path);
  return m;
}

}  // namespace snowkit::suite

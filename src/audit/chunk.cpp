#include "audit/chunk.hpp"

#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "common/buffer.hpp"

namespace snowkit::audit {

namespace {

void append(std::vector<std::uint8_t>& out, BufWriter& w) {
  const auto bytes = w.take();
  out.insert(out.end(), bytes.begin(), bytes.end());
}

// Section tags.  The trailer tag doubles as the terminator, so a reader
// never needs the file length to know where sections end.
constexpr std::uint8_t kTagTrailer = 0;
constexpr std::uint8_t kTagRingGroup = 1;
constexpr std::uint8_t kTagHistory = 2;
constexpr std::uint8_t kTagStringTable = 3;

}  // namespace

std::uint64_t fnv1a(const std::uint8_t* data, std::size_t n) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 0x100000001B3ull;
  }
  return h;
}

void seal(std::vector<std::uint8_t>& buf) {
  const std::uint64_t fp = fnv1a(buf.data(), buf.size());
  BufWriter w;
  w.u64(fp);
  w.u64(kChunkEndMagic);
  append(buf, w);
}

std::size_t verify_seal(const std::vector<std::uint8_t>& bytes, const std::string& context) {
  if (bytes.size() < 16) {
    throw std::invalid_argument(context + ": too short to be a sealed audit file");
  }
  std::uint64_t fp = 0;
  std::uint64_t magic = 0;
  std::memcpy(&fp, bytes.data() + bytes.size() - 16, 8);
  std::memcpy(&magic, bytes.data() + bytes.size() - 8, 8);
  if (magic != kChunkEndMagic) {
    throw std::invalid_argument(context + ": torn or truncated audit file (bad end magic)");
  }
  if (fnv1a(bytes.data(), bytes.size() - 16) != fp) {
    throw std::invalid_argument(context + ": fingerprint mismatch (corrupt audit file)");
  }
  return bytes.size() - 16;
}

ChunkWriter::ChunkWriter(const ChunkMeta& meta) {
  BufWriter w;
  w.str(kChunkSchema);
  w.u32(meta.process_index);
  w.u32(meta.chunk_seq);
  w.str(meta.protocol);
  w.u32(meta.num_servers);
  w.str(meta.fleet_text);
  append(buf_, w);
}

std::uint32_t ChunkWriter::name_index(const char* name) {
  // Linear scan by content: payload kinds number under a dozen, and this
  // runs on the flusher, never the capture hot path.
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

void ChunkWriter::add_group(std::uint64_t ring_uid, std::uint64_t base_seq, const RawEvent* ev,
                            std::size_t n) {
  if (n == 0) return;
  BufWriter w;
  w.u8(kTagRingGroup);
  w.u64(ring_uid);
  w.u64(ev[0].time);
  w.u64(base_seq);
  w.uv(n);
  TimeNs prev = ev[0].time;
  for (std::size_t i = 0; i < n; ++i) {
    // ZigZag deltas: same-thread steady-clock reads are monotone, so deltas
    // are tiny non-negatives in practice; zz keeps a hypothetical backwards
    // step representable instead of exploding to a 10-byte varint.
    w.zz(static_cast<std::int64_t>(ev[i].time - prev));
    prev = ev[i].time;
    w.uv(ev[i].node);
    w.uv(ev[i].peer);
    // +1 shift so the common kInvalidTxn encodes as 0 (u64 wraparound).
    w.uv(ev[i].txn + 1);
    w.uv(name_index(ev[i].payload));
    w.uv(ev[i].bytes);
    w.uv(ev[i].versions);
    w.u8(static_cast<std::uint8_t>(ev[i].kind));
  }
  total_events_ += n;
  append(buf_, w);
}

void ChunkWriter::set_history(const History& h) { history_ = h; }

std::vector<std::uint8_t> ChunkWriter::finish(std::uint64_t drops) {
  if (history_) {
    BufWriter w;
    w.u8(kTagHistory);
    append(buf_, w);
    encode_history(*history_, buf_);
  }
  BufWriter w;
  w.u8(kTagStringTable);
  w.cvec(names_, [](BufWriter& w2, const std::string& s) { w2.str(s); });
  w.u8(kTagTrailer);
  w.u64(total_events_);
  w.u64(drops);
  append(buf_, w);
  seal(buf_);
  return std::move(buf_);
}

ChunkFile decode_chunk(const std::vector<std::uint8_t>& bytes, const std::string& context) {
  verify_seal(bytes, context);

  BufReader r(bytes, context);
  const std::string schema = r.str();
  if (schema != kChunkSchema) {
    throw std::invalid_argument(context + ": unknown schema '" + schema + "' (expected " +
                                kChunkSchema + ")");
  }
  ChunkFile f;
  f.meta.process_index = r.u32();
  f.meta.chunk_seq = r.u32();
  f.meta.protocol = r.str();
  f.meta.num_servers = r.u32();
  f.meta.fleet_text = r.str();

  // Events carry string-table indices until the table section arrives;
  // resolve after the parse loop.
  std::vector<std::uint64_t> name_idx;
  std::vector<std::string> names;
  bool saw_table = false;
  std::uint64_t trailer_events = 0;

  for (;;) {
    const std::uint8_t tag = r.u8();
    if (tag == kTagRingGroup) {
      const std::uint64_t ring_uid = r.u64();
      const TimeNs base_time = r.u64();
      const std::uint64_t base_seq = r.u64();
      const std::size_t count = r.count(r.uv());
      TimeNs prev = base_time;
      for (std::size_t i = 0; i < count; ++i) {
        AuditEvent e;
        e.time = prev + static_cast<TimeNs>(r.zz());
        prev = e.time;
        e.node = static_cast<NodeId>(r.uv());
        e.peer = static_cast<NodeId>(r.uv());
        e.txn = r.uv() - 1;  // undo the +1 shift; 0 -> kInvalidTxn
        name_idx.push_back(r.uv());
        e.bytes = static_cast<std::uint32_t>(r.uv());
        e.versions = static_cast<std::uint32_t>(r.uv());
        const std::uint8_t kind = r.u8();
        if (kind > 1) r.fail("bad event kind " + std::to_string(kind));
        e.kind = static_cast<EventKind>(kind);
        e.ring = ring_uid;
        e.seq = base_seq + i;
        f.events.push_back(std::move(e));
      }
    } else if (tag == kTagHistory) {
      if (f.history) r.fail("duplicate history section");
      f.history = decode_history(r);
    } else if (tag == kTagStringTable) {
      if (saw_table) r.fail("duplicate string table");
      saw_table = true;
      names = r.cvec<std::string>([](BufReader& r2) { return r2.str(); });
    } else if (tag == kTagTrailer) {
      trailer_events = r.u64();
      f.drops = r.u64();
      (void)r.u64();  // fingerprint — verified against the raw bytes above
      (void)r.u64();  // end magic
      if (!r.done()) r.fail("trailing bytes after trailer");
      break;
    } else {
      r.fail("unknown section tag " + std::to_string(tag));
    }
  }

  if (trailer_events != f.events.size()) r.fail("trailer event count mismatch");
  if (!saw_table && !f.events.empty()) r.fail("events without a string table");
  for (std::size_t i = 0; i < f.events.size(); ++i) {
    if (name_idx[i] >= names.size()) r.fail("payload name index out of range");
    f.events[i].payload = names[name_idx[i]];
  }
  return f;
}

ChunkFile load_chunk(const std::string& path) {
  ChunkFile f = decode_chunk(read_file(path), path);
  f.path = path;
  return f;
}

std::string chunk_filename(const std::string& prefix, std::uint32_t process_index,
                           std::uint32_t chunk_seq) {
  char tail[64];
  std::snprintf(tail, sizeof tail, ".p%u.%06u.auditchunk", process_index, chunk_seq);
  return prefix + tail;
}

void encode_history(const History& h, std::vector<std::uint8_t>& out) {
  BufWriter w;
  w.u32(static_cast<std::uint32_t>(h.num_objects));
  auto pair_writer = [](BufWriter& w3, const std::pair<ObjectId, Value>& p) {
    w3.u32(p.first);
    w3.i64(p.second);
  };
  w.cvec(h.txns, [&](BufWriter& w2, const TxnRecord& t) {
    w2.u64(t.id);
    w2.u32(t.client);
    w2.u8(t.is_read ? 1 : 0);
    w2.u64(t.invoke_ns);
    w2.u64(t.respond_ns);
    w2.u8(t.complete ? 1 : 0);
    w2.u64(t.invoke_order);
    w2.u64(t.respond_order);
    w2.cvec(t.writes, pair_writer);
    w2.cvec(t.reads, pair_writer);
    w2.u64(t.tag);
    w2.uv(static_cast<std::uint64_t>(t.rounds));
    w2.uv(static_cast<std::uint64_t>(t.max_versions));
  });
  append(out, w);
}

History decode_history(BufReader& r) {
  History h;
  h.num_objects = r.u32();
  auto pair_reader = [](BufReader& r3) {
    const ObjectId obj = r3.u32();
    const Value v = r3.i64();
    return std::pair<ObjectId, Value>{obj, v};
  };
  h.txns = r.cvec<TxnRecord>([&](BufReader& r2) {
    TxnRecord t;
    t.id = r2.u64();
    t.client = r2.u32();
    t.is_read = r2.u8() != 0;
    t.invoke_ns = r2.u64();
    t.respond_ns = r2.u64();
    t.complete = r2.u8() != 0;
    t.invoke_order = r2.u64();
    t.respond_order = r2.u64();
    t.writes = r2.cvec<std::pair<ObjectId, Value>>(pair_reader);
    t.reads = r2.cvec<std::pair<ObjectId, Value>>(pair_reader);
    t.tag = r2.u64();
    t.rounds = static_cast<int>(r2.uv());
    t.max_versions = static_cast<int>(r2.uv());
    return t;
  });
  return h;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) throw std::runtime_error("cannot open " + path);
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, in)) > 0) bytes.insert(bytes.end(), buf, buf + n);
  std::fclose(in);
  return bytes;
}

void write_file_atomic(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* out = std::fopen(tmp.c_str(), "wb");
  if (out == nullptr) throw std::runtime_error("cannot open " + tmp + " for writing");
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), out);
  const int close_err = std::fclose(out);
  if (written != bytes.size() || close_err != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("cannot rename " + tmp + " to " + path);
  }
}

std::string peek_schema(const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < 4) return "";
  std::uint32_t n = 0;
  std::memcpy(&n, bytes.data(), 4);
  if (n > 64 || bytes.size() < 4 + static_cast<std::size_t>(n)) return "";
  return std::string(reinterpret_cast<const char*>(bytes.data() + 4), n);
}

}  // namespace snowkit::audit

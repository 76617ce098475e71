#include "fuzz/trace_io.hpp"

#include <bit>
#include <cstdio>
#include <stdexcept>

#include "common/buffer.hpp"

namespace snowkit::fuzz {

namespace {

void encode_case(const FuzzCase& c, BufWriter& w) {
  w.str(c.protocol);
  w.u32(c.num_objects);
  w.u32(c.num_readers);
  w.u32(c.num_writers);
  w.u32(c.num_servers);
  w.u32(c.replicas);
  w.u8(static_cast<std::uint8_t>(c.placement));
  w.u64(c.schedule_seed);
  w.u64(std::bit_cast<std::uint64_t>(c.hold_probability));
  w.u64(std::bit_cast<std::uint64_t>(c.release_probability));
  w.vec(c.ops, [](BufWriter& w2, const FuzzOp& op) {
    w2.u32(op.client);
    w2.u8(op.is_read ? 1 : 0);
    w2.vec(op.objects, [](BufWriter& w3, ObjectId obj) { w3.u32(obj); });
    w2.vec(op.values, [](BufWriter& w3, Value v) { w3.i64(v); });
  });
}

FuzzCase decode_case(BufReader& r, bool has_replicas) {
  FuzzCase c;
  c.protocol = r.str();
  c.num_objects = r.u32();
  c.num_readers = r.u32();
  c.num_writers = r.u32();
  c.num_servers = r.u32();
  c.replicas = has_replicas ? r.u32() : 1;  // v1 predates replication
  const std::uint8_t placement = r.u8();
  if (placement > static_cast<std::uint8_t>(PlacementKind::kRange)) {
    r.fail("bad placement " + std::to_string(placement));
  }
  c.placement = static_cast<PlacementKind>(placement);
  c.schedule_seed = r.u64();
  c.hold_probability = std::bit_cast<double>(r.u64());
  c.release_probability = std::bit_cast<double>(r.u64());
  c.ops = r.vec<FuzzOp>([](BufReader& r2) {
    FuzzOp op;
    op.client = r2.u32();
    op.is_read = r2.u8() != 0;
    op.objects = r2.vec<ObjectId>([](BufReader& r3) { return r3.u32(); });
    op.values = r2.vec<Value>([](BufReader& r3) { return r3.i64(); });
    return op;
  });
  return c;
}

}  // namespace

std::vector<std::uint8_t> encode_trace_file(const FuzzTraceFile& f) {
  BufWriter w;
  w.str(kFuzzTraceSchema);
  encode_case(f.c, w);
  encode_schedule_log(f.log, w);
  w.str(f.checker);
  w.str(f.explanation);
  w.u64(f.trace_hash);
  return w.take();
}

FuzzTraceFile decode_trace_file(const std::vector<std::uint8_t>& bytes) {
  // A malformed trace FILE is expected input (repros come off disks and CI
  // artifacts): every malformation is a "fuzz trace: ..." CodecError.
  BufReader r(bytes, "fuzz trace");
  const std::string schema = r.str();
  if (schema != kFuzzTraceSchema && schema != kFuzzTraceSchemaV1) {
    r.fail("unknown schema '" + schema + "' (expected " + kFuzzTraceSchema + " or " +
           kFuzzTraceSchemaV1 + ")");
  }
  FuzzTraceFile f;
  f.c = decode_case(r, /*has_replicas=*/schema == kFuzzTraceSchema);
  f.log = decode_schedule_log(r);
  f.checker = r.str();
  f.explanation = r.str();
  f.trace_hash = r.u64();
  if (!r.done()) r.fail("trailing bytes");
  return f;
}

void write_trace_file(const std::string& path, const FuzzTraceFile& f) {
  const auto bytes = encode_trace_file(f);
  std::FILE* out = std::fopen(path.c_str(), "wb");
  if (out == nullptr) throw std::runtime_error("cannot open " + path + " for writing");
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), out);
  const int close_err = std::fclose(out);
  if (written != bytes.size() || close_err != 0) {
    throw std::runtime_error("short write to " + path);
  }
}

FuzzTraceFile read_trace_file(const std::string& path) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) throw std::runtime_error("cannot open " + path);
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, in)) > 0) bytes.insert(bytes.end(), buf, buf + n);
  std::fclose(in);
  return decode_trace_file(bytes);
}

}  // namespace snowkit::fuzz

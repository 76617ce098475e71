// The one byte layer: LEB128 varints and the writer/reader pair behind the
// wire codec (src/msg/codec.cpp), the socket framing (src/runtime/socket.cpp)
// and the on-disk formats (fuzz trace files, audit chunks; the WAL is codec
// bytes).
//
// The threaded runtime serializes every message through this codec so that
// protocols exchange bytes, not shared pointers — the closest in-process
// equivalent of the gRPC deployment the reproduction hint calls for.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace snowkit {

/// Thrown by BufReader on malformed bytes (truncation, overflowing varints,
/// absurd counts) and by the checks decoders run on what it reads.  Trusted
/// entry points (decode_message, decode_trace) catch it and abort: in-process
/// bytes come from our own encoder, so corruption there is an invariant
/// violation.  Untrusted entry points catch it and error-return
/// (try_decode_message and the frame-header parsers, fed by the TCP
/// transport) or let it through as the std::invalid_argument it is (fuzz
/// trace files, audit chunks), so hostile bytes cannot crash the process.
class CodecError : public std::invalid_argument {
 public:
  explicit CodecError(const std::string& what) : std::invalid_argument(what) {}
};

/// LEB128 varint: 7 value bits per byte, low group first, high bit set on
/// every byte but the last.  1 byte for values < 128 (the common case for
/// object ids, tags, set sizes and deltas), at most 10.  BufReader::uv is
/// the one decoder.
inline std::size_t uv_size(std::uint64_t v) {
  return (static_cast<std::size_t>(std::bit_width(v | 1)) + 6) / 7;
}

inline void put_uv(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

/// ZigZag: signed values near zero map to small unsigned ones.
inline std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}

class BufWriter {
 public:
  /// Writes into an internally owned buffer (retrieve with take()).
  BufWriter() : buf_(&own_) {}

  /// Writes into `out`, clearing it first but KEEPING its capacity — the
  /// ThreadRuntime fast path encodes every message into a recycled buffer,
  /// so steady-state sends allocate nothing.
  explicit BufWriter(std::vector<std::uint8_t>& out) : buf_(&out) { out.clear(); }

  // buf_ may point at own_, which copying/moving would leave aliased or
  // dangling; writers are scoped helpers, never passed by value.
  BufWriter(const BufWriter&) = delete;
  BufWriter& operator=(const BufWriter&) = delete;

  void u8(std::uint8_t v) { buf_->push_back(v); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void i64(std::int64_t v) { raw(&v, sizeof v); }
  void uv(std::uint64_t v) { put_uv(*buf_, v); }
  void zz(std::int64_t v) { uv(zigzag(v)); }

  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }

  template <typename T, typename Fn>
  void vec(const std::vector<T>& v, Fn&& write_elem) {
    u32(static_cast<std::uint32_t>(v.size()));
    for (const auto& e : v) write_elem(*this, e);
  }

  /// Varint-length-prefixed vector (the compact sibling of vec()).
  template <typename T, typename Fn>
  void cvec(const std::vector<T>& v, Fn&& write_elem) {
    uv(v.size());
    for (const auto& e : v) write_elem(*this, e);
  }

  std::vector<std::uint8_t> take() { return std::move(*buf_); }
  std::size_t size() const { return buf_->size(); }

 private:
  void raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_->insert(buf_->end(), b, b + n);
  }
  std::vector<std::uint8_t> own_;
  std::vector<std::uint8_t>* buf_;
};

/// BufWriter stand-in that only counts bytes: encoded_size() runs the
/// encoder against this, so wire-volume accounting never heap-allocates.
class SizeWriter {
 public:
  void u8(std::uint8_t) { n_ += 1; }
  void uv(std::uint64_t v) { n_ += uv_size(v); }
  void zz(std::int64_t v) { uv(zigzag(v)); }

  std::size_t size() const { return n_; }

 private:
  std::size_t n_ = 0;
};

/// Bounds-checked reader over trusted or untrusted bytes; every malformation
/// throws CodecError (see above for who catches it and how).
class BufReader {
 public:
  /// `context` (a file path, "fuzz trace") prefixes every error message.
  /// The wire path leaves it empty: nothing is allocated unless a read fails.
  explicit BufReader(const std::vector<std::uint8_t>& buf, std::string_view context = {})
      : p_(buf.data()), end_(buf.data() + buf.size()), context_(context) {}

  std::uint8_t u8() {
    need(1);
    return *p_++;
  }
  std::uint32_t u32() { std::uint32_t v; raw(&v, sizeof v); return v; }
  std::uint64_t u64() { std::uint64_t v; raw(&v, sizeof v); return v; }
  std::int64_t i64() { std::int64_t v; raw(&v, sizeof v); return v; }

  std::uint64_t uv() {
    std::uint64_t v = 0;
    for (unsigned shift = 0;; shift += 7) {
      const std::uint8_t b = u8();
      // The 10th byte holds bit 63 only; anything more does not fit a u64.
      if (shift == 63 && b > 1) fail("varint overflows 64 bits");
      v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if (b < 0x80) return v;
    }
  }

  std::int64_t zz() {
    const std::uint64_t u = uv();
    return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
  }

  std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string s(reinterpret_cast<const char*>(p_), n);
    p_ += n;
    return s;
  }

  /// An element count `n`, refused unless every element can still take at
  /// least one byte, so a hostile count never reaches reserve().
  std::size_t count(std::uint64_t n) const {
    if (n > remaining()) fail("count exceeds buffer");
    return static_cast<std::size_t>(n);
  }

  template <typename T, typename Fn>
  std::vector<T> vec(Fn&& read_elem) {
    return elems<T>(count(u32()), read_elem);
  }

  /// Varint-length-prefixed vector (the compact sibling of vec()).
  template <typename T, typename Fn>
  std::vector<T> cvec(Fn&& read_elem) {
    return elems<T>(count(uv()), read_elem);
  }

  std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }
  bool done() const { return p_ == end_; }

  [[noreturn]] void fail(std::string_view why) const {
    if (context_.empty()) throw CodecError(std::string(why));
    throw CodecError(std::string(context_) + ": " + std::string(why));
  }

 private:
  template <typename T, typename Fn>
  std::vector<T> elems(std::size_t n, Fn& read_elem) {
    std::vector<T> v;
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i) v.push_back(read_elem(*this));
    return v;
  }
  void need(std::size_t n) const {
    if (n > remaining()) fail("truncated buffer");
  }
  void raw(void* p, std::size_t n) {
    need(n);
    std::memcpy(p, p_, n);
    p_ += n;
  }
  const std::uint8_t* p_;
  const std::uint8_t* end_;
  std::string_view context_;
};

}  // namespace snowkit

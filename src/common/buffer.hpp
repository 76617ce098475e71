// Byte-buffer reader/writer used by the wire codec (src/msg/codec.cpp).
//
// The threaded runtime serializes every message through this codec so that
// protocols exchange bytes, not shared pointers — the closest in-process
// equivalent of the gRPC deployment the reproduction hint calls for.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/assert.hpp"

namespace snowkit {

/// Thrown by BufReader on malformed bytes (truncation, overlong varints,
/// absurd lengths).  Trusted-input entry points (decode_message,
/// decode_trace) catch it and abort — in-process bytes are produced by our
/// own encoder, so corruption there is an invariant violation.  Untrusted
/// entry points (try_decode_message, fed by the TCP transport) catch it and
/// error-return so a hostile peer cannot crash the process.
class CodecError : public std::runtime_error {
 public:
  explicit CodecError(const std::string& what) : std::runtime_error(what) {}
};

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

  /// LEB128 varint: 1 byte for values < 128, the common case for object ids,
  /// tags, set sizes and delta-coded positions on the wire.
  void uv(std::uint64_t v) {
    while (v >= 0x80) {
      buf_->push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_->push_back(static_cast<std::uint8_t>(v));
  }

  /// ZigZag-mapped varint for signed values near zero.
  void zz(std::int64_t v) {
    uv((static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63));
  }

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

/// Drop-in BufWriter stand-in that only counts bytes: encoded_size() runs the
/// encoder against this, so wire-volume accounting never heap-allocates.
class SizeWriter {
 public:
  void u8(std::uint8_t) { n_ += 1; }
  void u32(std::uint32_t) { n_ += 4; }
  void u64(std::uint64_t) { n_ += 8; }
  void i64(std::int64_t) { n_ += 8; }

  void uv(std::uint64_t v) {
    ++n_;
    while (v >= 0x80) {
      ++n_;
      v >>= 7;
    }
  }

  void zz(std::int64_t v) {
    uv((static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63));
  }

  void str(const std::string& s) { n_ += 4 + s.size(); }

  template <typename T, typename Fn>
  void vec(const std::vector<T>& v, Fn&& write_elem) {
    n_ += 4;
    for (const auto& e : v) write_elem(*this, e);
  }

  template <typename T, typename Fn>
  void cvec(const std::vector<T>& v, Fn&& write_elem) {
    uv(v.size());
    for (const auto& e : v) write_elem(*this, e);
  }

  std::size_t size() const { return n_; }

 private:
  std::size_t n_ = 0;
};

/// Bounds-checked reader; every malformation throws CodecError (see above
/// for who catches it and how).
class BufReader {
 public:
  explicit BufReader(const std::vector<std::uint8_t>& buf) : buf_(buf) {}

  std::uint8_t u8() {
    need(1);
    return buf_[pos_++];
  }
  std::uint32_t u32() { std::uint32_t v; raw(&v, sizeof v); return v; }
  std::uint64_t u64() { std::uint64_t v; raw(&v, sizeof v); return v; }
  std::int64_t i64() { std::int64_t v; raw(&v, sizeof v); return v; }

  std::uint64_t uv() {
    std::uint64_t v = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
      const std::uint8_t b = u8();
      // The 10th byte holds bit 63 only; anything more does not fit a u64.
      if (shift == 63 && b > 1) throw CodecError("varint overflows 64 bits");
      v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) return v;
    }
    throw CodecError("varint longer than 10 bytes");
  }

  std::int64_t zz() {
    const std::uint64_t u = uv();
    return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
  }

  std::string str() {
    std::uint32_t n = u32();
    need(n);
    std::string s(reinterpret_cast<const char*>(buf_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  template <typename T, typename Fn>
  std::vector<T> vec(Fn&& read_elem) {
    std::uint32_t n = u32();
    if (n > buf_.size()) throw CodecError("vec length exceeds buffer");
    std::vector<T> v;
    v.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) v.push_back(read_elem(*this));
    return v;
  }

  template <typename T, typename Fn>
  std::vector<T> cvec(Fn&& read_elem) {
    return cvec<T>(uv(), read_elem);
  }

  /// cvec whose count `n` was already read (packed into another varint).
  template <typename T, typename Fn>
  std::vector<T> cvec(std::uint64_t n, Fn&& read_elem) {
    if (n > buf_.size()) throw CodecError("cvec length exceeds buffer");
    std::vector<T> v;
    v.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) v.push_back(read_elem(*this));
    return v;
  }

  bool done() const { return pos_ == buf_.size(); }

 private:
  void need(std::size_t n) const {
    if (pos_ + n > buf_.size()) throw CodecError("truncated buffer");
  }
  void raw(void* p, std::size_t n) {
    need(n);
    std::memcpy(p, buf_.data() + pos_, n);
    pos_ += n;
  }
  const std::vector<std::uint8_t>& buf_;
  std::size_t pos_ = 0;
};

}  // namespace snowkit

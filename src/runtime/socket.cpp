#include "runtime/socket.hpp"

#include <cstring>
#include <utility>

#include "common/assert.hpp"
#include "common/buffer.hpp"
#include "msg/codec.hpp"

#ifdef __linux__
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace snowkit::net {

namespace {

void put_u32le(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

}  // namespace

// --- FrameDecoder ------------------------------------------------------------

void FrameDecoder::feed(const std::uint8_t* data, std::size_t n) {
  if (failed()) return;  // terminal: drop everything after an error
  buf_.insert(buf_.end(), data, data + n);
}

FrameDecoder::Status FrameDecoder::next(Frame& out) {
  if (failed()) return Status::kError;
  const std::uint8_t* p = buf_.data() + pos_;
  const std::size_t avail = buf_.size() - pos_;
  std::size_t header = 0;  // length-prefix bytes
  std::size_t len = 0;     // bytes after the prefix
  if (hello_due_) {
    // The frozen HELLO layout's u32le length.
    if (avail < 4) return Status::kNeedMore;
    len = static_cast<std::size_t>(p[0]) | (static_cast<std::size_t>(p[1]) << 8) |
          (static_cast<std::size_t>(p[2]) << 16) | (static_cast<std::size_t>(p[3]) << 24);
    header = 4;
  } else {
    // Compact: a LEB128 length of at most kMaxFrameLenBytes bytes.
    while (true) {
      if (header == avail) return Status::kNeedMore;
      const std::uint8_t byte = p[header];
      len |= static_cast<std::size_t>(byte & 0x7F) << (7 * header);
      ++header;
      if ((byte & 0x80) == 0) break;
      if (header == kMaxFrameLenBytes) {
        error_ = "frame length varint longer than " + std::to_string(kMaxFrameLenBytes) +
                 " bytes";
        return Status::kError;
      }
    }
  }
  if (len > kMaxFrameBytes) {
    error_ = "frame length " + std::to_string(len) + " exceeds kMaxFrameBytes";
    return Status::kError;
  }
  if (hello_due_) {
    // The type byte is checked as soon as it is buffered, so a stream that
    // is no HELLO (a compact frame, a foreign protocol) fails without
    // waiting for its claimed body.
    if (len == 0) {
      error_ = "zero-length frame where a hello is due";
      return Status::kError;
    }
    if (avail == header) return Status::kNeedMore;
    if (p[header] != static_cast<std::uint8_t>(FrameType::kHello)) {
      error_ = "expected a hello, got frame type " + std::to_string(p[header]);
      return Status::kError;
    }
  }
  if (avail < header + len) return Status::kNeedMore;
  out.type = hello_due_ ? FrameType::kHello : len == 0 ? FrameType::kShutdown : FrameType::kMsg;
  const std::size_t type_byte = hello_due_ ? 1 : 0;  // not part of Frame::body
  out.body.assign(p + header + type_byte, p + header + len);
  hello_due_ = false;
  pos_ += header + len;
  // Compact once the consumed prefix dominates, so the buffer cannot grow
  // without bound across a long-lived connection.
  if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  if (pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  }
  return Status::kFrame;
}

// --- WriteCoalescer ----------------------------------------------------------

std::size_t WriteCoalescer::gather(IoSlice* out, std::size_t max_iov) const {
  std::size_t n = 0;
  std::size_t gathered = 0;
  std::size_t off = off_;
  for (const auto& frame : q_) {
    if (n >= max_iov || n >= max_frames_) break;
    // The byte cap never blocks the FIRST slice: a frame bigger than
    // max_bytes must still drain (one frame per syscall, worst case).
    if (n > 0 && gathered + (frame.size() - off) > max_bytes_) break;
    out[n].data = frame.data() + off;
    out[n].len = frame.size() - off;
    gathered += out[n].len;
    ++n;
    off = 0;  // only the front frame has a resume offset
  }
  return n;
}

std::size_t WriteCoalescer::consume(std::size_t n,
                                    std::vector<std::vector<std::uint8_t>>* spent) {
  bytes_ -= n;  // caller never consumes more than it gathered
  std::size_t completed = 0;
  while (n > 0) {
    auto& front = q_.front();
    const std::size_t remaining = front.size() - off_;
    if (n < remaining) {
      off_ += n;  // partial write: resume mid-frame on the next gather
      return completed;
    }
    n -= remaining;
    off_ = 0;
    if (spent != nullptr) spent->push_back(std::move(front));
    q_.pop_front();
    ++completed;
  }
  return completed;
}

std::deque<std::vector<std::uint8_t>> WriteCoalescer::take_unsent() {
  if (off_ > 0 && !q_.empty()) q_.pop_front();  // its prefix died with the socket
  off_ = 0;
  bytes_ = 0;
  return std::exchange(q_, {});
}

// --- frame builders ----------------------------------------------------------

void append_hello(std::vector<std::uint8_t>& out, std::uint64_t process_index) {
  const std::size_t body = 1 + 4 + uv_size(kWireVersion) + uv_size(process_index);
  put_u32le(out, static_cast<std::uint32_t>(body));
  out.push_back(static_cast<std::uint8_t>(FrameType::kHello));
  put_u32le(out, kWireMagic);
  put_uv(out, kWireVersion);
  put_uv(out, process_index);
}

void append_msg(std::vector<std::uint8_t>& out, NodeId from, NodeId to, const Message& m) {
  // The message bytes are the codec's, verbatim; a thread-local scratch keeps
  // steady-state framing allocation-free, mirroring the ThreadRuntime send
  // fast path.
  thread_local std::vector<std::uint8_t> scratch;
  encode_message_into(m, scratch);
  const std::size_t body = uv_size(from) + uv_size(to) + scratch.size();
  // Fail at the SENDER with the payload named: an oversize frame would pass
  // through the socket fine and then kill the link at the receiver's
  // decoder, losing the frame on reconnect and hanging the transaction with
  // no diagnostic.
  SNOW_CHECK_MSG(body <= kMaxFrameBytes,
                 "message " << payload_name(m.payload) << " encodes to " << scratch.size()
                            << " bytes, above the snowkit-wire-v10 frame cap ("
                            << kMaxFrameBytes << "); GC the version store or raise the cap");
  put_uv(out, body);
  put_uv(out, from);
  put_uv(out, to);
  out.insert(out.end(), scratch.begin(), scratch.end());
}

void append_shutdown(std::vector<std::uint8_t>& out) { put_uv(out, 0); }

// --- frame body parsers ------------------------------------------------------

bool parse_hello(const std::vector<std::uint8_t>& body, HelloBody& out, std::string& err) {
  try {
    BufReader r(body);
    std::uint32_t magic = 0;
    for (int shift = 0; shift < 32; shift += 8) magic |= std::uint32_t{r.u8()} << shift;
    if (magic != kWireMagic) r.fail("bad hello magic");
    const std::uint64_t version = r.uv();
    if (version != kWireVersion) {
      r.fail("wire version " + std::to_string(version) + " (expected " +
             std::to_string(kWireVersion) + ")");
    }
    out.process_index = r.uv();
    if (!r.done()) r.fail("trailing bytes after hello");
    return true;
  } catch (const CodecError& e) {
    err = e.what();
    return false;
  }
}

bool parse_msg_header(const std::vector<std::uint8_t>& body, MsgHeader& out, std::string& err) {
  try {
    BufReader r(body);
    const std::uint64_t from = r.uv();
    const std::uint64_t to = r.uv();
    if (from >= kInvalidNode || to >= kInvalidNode) {
      r.fail("msg routing header node id out of range");
    }
    if (r.done()) r.fail("msg frame carries no payload");
    out.from = static_cast<NodeId>(from);
    out.to = static_cast<NodeId>(to);
    out.payload_offset = body.size() - r.remaining();
    return true;
  } catch (const CodecError& e) {
    err = e.what();
    return false;
  }
}

Message decode_msg_payload(const std::vector<std::uint8_t>& body, std::size_t payload_offset) {
  const std::vector<std::uint8_t> payload(body.begin() +
                                              static_cast<std::ptrdiff_t>(payload_offset),
                                          body.end());
  return decode_message(payload);
}

// --- socket helpers ----------------------------------------------------------

#ifdef __linux__

bool transport_supported() { return true; }

namespace {

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

bool make_addr(const std::string& host, std::uint16_t port, sockaddr_in& addr,
               std::string& err) {
  std::memset(&addr, 0, sizeof addr);
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    err = "bad IPv4 address '" + host + "'";
    return false;
  }
  return true;
}

}  // namespace

int tcp_listen(const std::string& host, std::uint16_t port, std::string& err) {
  sockaddr_in addr;
  if (!make_addr(host, port, addr, err)) return -1;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    err = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    err = "bind " + host + ":" + std::to_string(port) + ": " + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  if (::listen(fd, 64) != 0) {
    err = std::string("listen: ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

int tcp_connect_start(const std::string& host, std::uint16_t port, std::string& err) {
  sockaddr_in addr;
  if (!make_addr(host, port, addr, err)) return -1;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    err = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  set_nodelay(fd);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 &&
      errno != EINPROGRESS) {
    err = "connect " + host + ":" + std::to_string(port) + ": " + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

int tcp_accept(int listen_fd, std::string& err) {
  const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
  if (fd < 0) {
    if (errno != EAGAIN && errno != EWOULDBLOCK) {
      err = std::string("accept: ") + std::strerror(errno);
    }
    return -1;
  }
  set_nodelay(fd);
  return fd;
}

std::uint16_t pick_free_port() {
  const auto ports = pick_free_ports(1);
  return ports.empty() ? 0 : ports.front();
}

std::vector<std::uint16_t> pick_free_ports(std::size_t n) {
  std::vector<std::uint16_t> ports;
  std::vector<int> fds;
  for (std::size_t i = 0; i < n; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) break;
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    socklen_t len = sizeof addr;
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0 &&
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
      ports.push_back(ntohs(addr.sin_port));
      fds.push_back(fd);  // keep it bound until all n are distinct
    } else {
      ::close(fd);
      break;
    }
  }
  for (const int fd : fds) ::close(fd);
  if (ports.size() != n) ports.clear();
  return ports;
}

#else  // !__linux__

bool transport_supported() { return false; }

int tcp_listen(const std::string&, std::uint16_t, std::string& err) {
  err = "snowkit TCP transport requires Linux (epoll)";
  return -1;
}
int tcp_connect_start(const std::string&, std::uint16_t, std::string& err) {
  err = "snowkit TCP transport requires Linux (epoll)";
  return -1;
}
int tcp_accept(int, std::string& err) {
  err = "snowkit TCP transport requires Linux (epoll)";
  return -1;
}
std::uint16_t pick_free_port() { return 0; }
std::vector<std::uint16_t> pick_free_ports(std::size_t) { return {}; }

#endif

}  // namespace snowkit::net

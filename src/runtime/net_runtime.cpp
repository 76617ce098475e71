#include "runtime/net_runtime.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>

#include "common/assert.hpp"
#include "msg/codec.hpp"

#ifdef __linux__
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <sys/uio.h>
#include <unistd.h>
#endif

namespace snowkit {

namespace {

// epoll_event.data.u64 tags.  Peer-link tags CARRY THE LINK'S CONNECTION
// GENERATION so a stale event for an already-closed-and-replaced connection
// (same peer index, queued in the same epoll_wait batch) is detectably stale
// and ignored instead of tearing down — or prematurely promoting — the
// replacement link.  The fd number alone is not enough: the kernel reuses fd
// numbers, so a reconnect can land on the exact fd the stale event names.
// The same property is what makes the thread-0 -> home-thread handoff of
// accepted connections safe: each registration is pinned to its generation.
constexpr std::uint64_t kTagListen = 0;
constexpr std::uint64_t kTagWake = 1;
constexpr std::uint64_t kTagTimer = 2;
constexpr std::uint64_t kTagPeerBit = 1ull << 63;
constexpr std::uint64_t kTagPendingBit = 1ull << 62;
constexpr std::uint64_t kTagPeerMask = (1ull << 24) - 1;  // fleets are tiny

std::uint64_t peer_tag(std::size_t peer, std::uint32_t gen) {
  return kTagPeerBit | (static_cast<std::uint64_t>(gen) << 24) | (peer & kTagPeerMask);
}

}  // namespace

NetRuntime::NetRuntime(NetOptions opts) : opts_(std::move(opts)) {
  if (!net::transport_supported()) {
    throw std::runtime_error("NetRuntime requires Linux (epoll/timerfd); "
                             "use SimRuntime or ThreadRuntime on this platform");
  }
  if (opts_.peers.empty() || opts_.index >= opts_.peers.size()) {
    throw std::runtime_error("NetRuntime: process index " + std::to_string(opts_.index) +
                             " out of range (fleet size " + std::to_string(opts_.peers.size()) +
                             ")");
  }
  if (!opts_.owner) {
    throw std::runtime_error("NetRuntime: an owner partition function is required");
  }
  opts_.transport.validate();  // fail-fast: misconfiguration never reaches start()
  links_.reserve(opts_.peers.size());
  for (std::size_t i = 0; i < opts_.peers.size(); ++i) {
    auto link = std::make_unique<PeerLink>();
    if (i == opts_.index) {
      link->state = PeerLink::State::kSelf;
    } else if (i < opts_.index) {
      link->initiator = true;  // higher index dials lower
      ++initiated_total_;
    }
    link->wq.set_limits(opts_.transport.coalesce_max_frames, opts_.transport.coalesce_max_bytes);
    links_.push_back(std::move(link));
  }
}

NetRuntime::~NetRuntime() {
  if (started_) stop();
}

void NetRuntime::on_node_added(NodeId id) {
  SNOW_CHECK_MSG(!started_, "cannot add nodes after start()");
  mailboxes_.push_back(owns(id) ? std::make_unique<Mailbox>() : nullptr);
}

TimeNs NetRuntime::now_ns() const {
  return static_cast<TimeNs>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::steady_clock::now().time_since_epoch())
                                 .count());
}

#ifdef __linux__

void NetRuntime::start() {
  SNOW_CHECK(!started_);
  started_ = true;
  stopping_.store(false, std::memory_order_release);

  const TransportOptions& t = opts_.transport;
  io_threads_.clear();
  pending_.clear();
  for (std::size_t id = 0; id < t.io_threads; ++id) {
    auto io = std::make_unique<IoThread>();
    io->id = id;
    io->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    SNOW_CHECK_MSG(io->epoll_fd >= 0, "epoll_create1 failed");
    io->wake_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    SNOW_CHECK_MSG(io->wake_fd >= 0, "eventfd failed");
    io->timer_fd = ::timerfd_create(CLOCK_MONOTONIC, TFD_CLOEXEC | TFD_NONBLOCK);
    SNOW_CHECK_MSG(io->timer_fd >= 0, "timerfd_create failed");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kTagWake;
    SNOW_CHECK(::epoll_ctl(io->epoll_fd, EPOLL_CTL_ADD, io->wake_fd, &ev) == 0);
    ev.data.u64 = kTagTimer;
    SNOW_CHECK(::epoll_ctl(io->epoll_fd, EPOLL_CTL_ADD, io->timer_fd, &ev) == 0);
    io->rbuf.resize(t.read_chunk_bytes);
    io->slices.resize(t.coalesce_max_frames);
    io->ready.resize(node_count());
    io_threads_.push_back(std::move(io));
  }
  for (std::size_t peer = 0; peer < links_.size(); ++peer) {
    if (peer == opts_.index) continue;
    io_threads_[home_index(peer)]->links.push_back(peer);
  }

  // Listen only when some higher-index process will dial us; accepts (and the
  // untrusted pre-HELLO phase) are thread 0's job.
  if (opts_.index + 1 < opts_.peers.size()) {
    const NetPeerAddr& self = opts_.peers[opts_.index];
    std::string err;
    listen_fd_ = net::tcp_listen(self.host, self.port, err);
    if (listen_fd_ < 0) {
      throw std::runtime_error("NetRuntime: " + err);
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kTagListen;
    SNOW_CHECK(::epoll_ctl(io_threads_[0]->epoll_fd, EPOLL_CTL_ADD, listen_fd_, &ev) == 0);
  }

  for (NodeId id = 0; id < node_count(); ++id) {
    if (owns(id)) start_node(id);
  }
  workers_.reserve(node_count());
  for (NodeId id = 0; id < node_count(); ++id) {
    if (owns(id)) workers_.emplace_back([this, id] { worker(id); });
  }
  for (auto& io : io_threads_) {
    IoThread* raw = io.get();
    io->thread = std::thread([this, raw] { io_loop(*raw); });
  }
}

void NetRuntime::stop() {
  if (!started_) return;
  // Best-effort outbound drain (bounded): give the I/O threads up to a second
  // to flush queued frames (e.g. the SHUTDOWN broadcast) before teardown.
  const auto start = std::chrono::steady_clock::now();
  const auto deadline = start + std::chrono::seconds(1);
  // Never-connected links get a SHORTER sub-window: a daemon that was not
  // reachable by now is almost certainly dead, and waiting the full second
  // on frames that can never flush defeats the point of the bound.  150ms
  // still covers the kick_connects redial plus a few backoff retries, so a
  // daemon that comes up moments after broadcast_shutdown() gets its
  // SHUTDOWN; one that comes up later than that loses it (it was equally
  // lost before this window existed — SHUTDOWN delivery is best-effort).
  const auto never_connected_deadline = start + std::chrono::milliseconds(150);
  while (std::chrono::steady_clock::now() < deadline) {
    bool dirty = false;
    // Read BEFORE scanning links: each I/O thread clears its flag only
    // AFTER dialing the kicked links, so all-false here (acquire, paired
    // with the release stores) guarantees kicked links already show
    // kConnecting.
    bool kick_pending = false;
    for (const auto& io : io_threads_) {
      kick_pending = kick_pending || io->kick_connects.load(std::memory_order_acquire);
    }
    for (auto& link : links_) {
      // Count DOWN links too: a link in reconnect backoff may still hold
      // the SHUTDOWN broadcast, and the kick_connects redial is racing to
      // flush it within this window.
      if (link->state == PeerLink::State::kSelf) continue;
      if (!kick_pending && !link->ever_connected.load(std::memory_order_acquire) &&
          link->state == PeerLink::State::kIdle &&
          std::chrono::steady_clock::now() >= never_connected_deadline) {
        continue;
      }
      // Read BOTH under out_mu: io_flush publishes staged (under this lock)
      // before it empties the outbox view, so a locked reader always sees a
      // queued-or-staged SHUTDOWN as dirty — staged-but-unsent bytes
      // (EAGAIN) count too, since the frame may sit there, not in the
      // outbox.
      std::lock_guard<std::mutex> lock(link->out_mu);
      if (!link->outbox.empty() || link->staged.load(std::memory_order_acquire) > 0) {
        dirty = true;
      }
    }
    if (!dirty) break;
    io_wake_all();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  stopping_.store(true, std::memory_order_release);
  io_wake_all();
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
  }
  conn_cv_.notify_all();
  for (auto& io : io_threads_) {
    if (io->thread.joinable()) io->thread.join();
  }

  // Release any sender blocked on backpressure.
  for (auto& link : links_) {
    std::lock_guard<std::mutex> lock(link->out_mu);
    link->out_cv.notify_all();
  }

  for (auto& mb : mailboxes_) {
    if (!mb) continue;
    std::lock_guard<std::mutex> lock(mb->mu);
    mb->stop = true;
    mb->cv.notify_all();
  }
  for (auto& t : workers_) t.join();
  workers_.clear();

  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
  for (auto& io : io_threads_) {
    if (io->wake_fd >= 0) ::close(io->wake_fd);
    if (io->timer_fd >= 0) ::close(io->timer_fd);
    if (io->epoll_fd >= 0) ::close(io->epoll_fd);
    io->wake_fd = io->timer_fd = io->epoll_fd = -1;
  }
  started_ = false;
}

void NetRuntime::send(NodeId from, NodeId to, Message m) {
  SNOW_CHECK_MSG(to < node_count(), "send to unknown node " << to);
  if (observer() != nullptr) observer()->on_send(from, to, m, encoded_size(m));
  const std::size_t peer = owner_of(to);  // one owner lookup per send
  if (peer == opts_.index) {
    // Local delivery still crosses the codec, exactly like ThreadRuntime,
    // including its recycled-buffer fast path: encode into a thread-local
    // scratch, swap it against a pooled buffer under the enqueue lock.
    thread_local std::vector<std::uint8_t> scratch;
    encode_message_into(m, scratch);
    Mailbox* mb = mailboxes_[to].get();
    SNOW_CHECK_MSG(mb != nullptr, "delivery to non-owned node " << to);
    {
      std::lock_guard<std::mutex> lock(mb->mu);
      Mailbox::Item item;
      item.from = from;
      if (!mb->pool.empty()) {
        item.bytes = std::move(mb->pool.back());
        mb->pool.pop_back();
      }
      item.bytes.swap(scratch);  // item takes the bytes, scratch the capacity
      mb->queue.push_back(std::move(item));
    }
    mb->cv.notify_one();
    return;
  }
  SNOW_CHECK_MSG(peer < links_.size(), "owner(" << to << ") = " << peer << " out of range");
  PeerLink& link = *links_[peer];
  // Frame into a thread-local scratch BEFORE taking the outbox lock, so
  // encoding cost (potentially a multi-KB history payload) never serializes
  // concurrent senders or stalls the home I/O thread's outbox pull.
  thread_local std::vector<std::uint8_t> framebuf;
  framebuf.clear();
  net::append_msg(framebuf, from, to, m);
  {
    std::unique_lock<std::mutex> lock(link.out_mu);
    if (link.outbox_bytes >= opts_.transport.backpressure_bytes) {
      // Backpressure: block this sender until the socket drains (or the
      // runtime stops).  I/O threads never block here, so inbound traffic
      // keeps flowing — unless BOTH directions saturate both their outbox
      // and inbound budgets at once (see the flow-control caveat in
      // transport_options.hpp); the defaults keep that configuration-
      // dependent stall out of reach for well-formed workloads.
      stats_.backpressure_waits.fetch_add(1, std::memory_order_relaxed);
      link.out_cv.wait(lock, [&] {
        return link.outbox_bytes < opts_.transport.backpressure_bytes ||
               stopping_.load(std::memory_order_acquire);
      });
      if (stopping_.load(std::memory_order_acquire)) return;
    }
    std::vector<std::uint8_t> buf;
    if (!link.pool.empty()) {
      buf = std::move(link.pool.back());
      link.pool.pop_back();
    }
    buf.swap(framebuf);  // buf takes the frame, framebuf keeps the capacity
    link.outbox_bytes += buf.size();
    link.outbox.push_back(std::move(buf));
  }
  stats_.frames_sent.fetch_add(1, std::memory_order_relaxed);
  // Wakeup elision: mark work pending, write the eventfd only if the home
  // thread is (about to be) asleep in epoll_wait.  The loop re-checks
  // `pending` after arming, so this can never strand a frame.
  IoThread& io = home(peer);
  io.pending.store(true, std::memory_order_seq_cst);
  if (io.armed.load(std::memory_order_seq_cst)) io_wake(io);
}

void NetRuntime::post(NodeId node, std::function<void()> fn) {
  SNOW_CHECK_MSG(node < node_count(), "post to unknown node " << node);
  SNOW_CHECK_MSG(owns(node), "post to remote node " << node << " (owned by process "
                                                    << owner_of(node) << ")");
  enqueue_local(node, Mailbox::Item{kInvalidNode, {}, std::move(fn)});
}

void NetRuntime::post_after(NodeId node, TimeNs delay_ns, std::function<void()> fn) {
  SNOW_CHECK_MSG(node < node_count(), "post_after to unknown node " << node);
  SNOW_CHECK_MSG(owns(node), "post_after to remote node " << node);
  // User timers all ride thread 0's heap (any heap works — the callback only
  // enqueues into a mailbox); internal link timers ride their home thread's.
  push_timer(*io_threads_[0], UserTimer{now_ns() + delay_ns, 0, node, std::move(fn)});
}

void NetRuntime::push_timer(IoThread& io, UserTimer t) {
  {
    std::lock_guard<std::mutex> lock(io.timer_mu);
    t.seq = io.timer_seq++;
    io.timers.push_back(std::move(t));
    std::push_heap(io.timers.begin(), io.timers.end(), std::greater<>());
  }
  io.pending.store(true, std::memory_order_seq_cst);
  if (io.armed.load(std::memory_order_seq_cst)) io_wake(io);
}

void NetRuntime::enqueue_local(NodeId to, Mailbox::Item item) {
  Mailbox* mb = mailboxes_[to].get();
  SNOW_CHECK_MSG(mb != nullptr, "delivery to non-owned node " << to);
  {
    std::lock_guard<std::mutex> lock(mb->mu);
    mb->queue.push_back(std::move(item));
  }
  mb->cv.notify_one();
}

void NetRuntime::worker(NodeId id) {
  Mailbox& mb = *mailboxes_[id];
  std::deque<Mailbox::Item> batch;
  std::vector<std::vector<std::uint8_t>> drained;  // buffers to recycle
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mb.mu);
      mb.cv.wait(lock, [&] { return mb.stop || !mb.queue.empty(); });
      if (mb.queue.empty()) return;  // stop requested and drained
      batch.swap(mb.queue);
      while (!drained.empty() && mb.pool.size() < kMaxPooledBuffers) {
        if (drained.back().capacity() <= kMaxPooledCapacity) {
          mb.pool.push_back(std::move(drained.back()));
        }
        drained.pop_back();
      }
    }
    drained.clear();
    std::size_t refund = 0;
    for (Mailbox::Item& item : batch) {
      refund += item.charge;
      if (item.task) {
        item.task();
      } else if (item.charge > 0) {
        // Network-origin frame (charge is only ever set by io_handle_frame):
        // the payload comes from a peer whose sole credential is an
        // unauthenticated HELLO, so a decode failure is hostile/corrupt
        // traffic — drop the frame and the connection it rode in on, never
        // the process.
        Message m;
        std::string err;
        if (try_decode_message(item.bytes, m, err)) {
          if (observer() != nullptr) observer()->on_deliver(item.from, id, m);
          deliver_to(item.from, id, m);
        } else {
          std::fprintf(stderr, "[snowkit-net %zu] dropping undecodable frame for node %u: %s\n",
                       opts_.index, id, err.c_str());
          request_link_drop(owner_of(item.from), item.link_gen);
        }
        if (!item.bytes.empty()) drained.push_back(std::move(item.bytes));
      } else {
        // Locally delivered bytes crossed only our own encoder: trusted.
        Message m = decode_message(item.bytes);
        if (observer() != nullptr) observer()->on_deliver(item.from, id, m);
        deliver_to(item.from, id, m);
        if (!item.bytes.empty()) drained.push_back(std::move(item.bytes));
      }
    }
    batch.clear();
    if (refund > 0) {
      // Refund the inbound budget; if reading is paused and we crossed the
      // resume threshold (the SAME threshold io_apply_inbound_flow_control
      // resumes at, floored so a 1-byte budget still resumes), wake every
      // I/O thread to re-subscribe EPOLLIN on its links.
      const std::size_t before = inbound_bytes_.fetch_sub(refund, std::memory_order_acq_rel);
      const std::size_t resume_below =
          std::max<std::size_t>(1, opts_.transport.inbound_budget_bytes / 2);
      if (inbound_paused_.load(std::memory_order_acquire) && before - refund < resume_below) {
        io_wake_all();
      }
    }
  }
}

// --- connection management (home-I/O-thread only unless noted) ---------------

/// Worker-thread request to tear down a peer link (e.g. an undecodable
/// payload surfaced after the I/O thread already enqueued the frame).  Rides
/// the internal-timer path so the actual close runs on the link's home
/// thread.  The generation pins the request to the connection the offending
/// frame arrived on: if that connection already died and a healthy
/// replacement took its place, the request must no-op, not kill the
/// replacement.
void NetRuntime::request_link_drop(std::size_t peer, std::uint32_t gen) {
  if (peer >= links_.size() || peer == opts_.index) return;
  push_timer(home(peer), UserTimer{now_ns(), 0, kInvalidNode, [this, peer, gen] {
                                     PeerLink& link = *links_[peer];
                                     if (link.fd >= 0 && link.gen == gen) {
                                       io_link_failed(peer, "undecodable payload");
                                     }
                                   }});
}

/// Churn injection: same home-thread close path as request_link_drop, but
/// un-pinned from a generation — whatever connection is live when the
/// callback runs is the one torn down (the caller wants "a drop now", not
/// "drop the connection frame X arrived on").
void NetRuntime::inject_link_drop(std::size_t peer) {
  if (peer >= links_.size() || peer == opts_.index) return;
  push_timer(home(peer), UserTimer{now_ns(), 0, kInvalidNode, [this, peer] {
                                     PeerLink& link = *links_[peer];
                                     if (link.fd >= 0 &&
                                         link.state == PeerLink::State::kUp) {
                                       stats_.churn_drops.fetch_add(
                                           1, std::memory_order_relaxed);
                                       io_link_failed(peer, "injected churn drop");
                                     }
                                   }});
}

void NetRuntime::inject_read_stall(TimeNs duration_ns) {
  const TimeNs until = now_ns() + duration_ns;
  TimeNs prev = stall_until_ns_.load(std::memory_order_relaxed);
  while (prev < until &&
         !stall_until_ns_.compare_exchange_weak(prev, until, std::memory_order_acq_rel)) {
  }
  stats_.churn_stalls.fetch_add(1, std::memory_order_relaxed);
  // Each loop applies the stall in io_apply_inbound_flow_control at the top
  // of its next iteration; the wake starts the stall promptly, the deadline
  // timer (a no-op callback) guarantees an iteration happens to END it even
  // on an otherwise-idle thread.
  for (auto& io : io_threads_) {
    push_timer(*io, UserTimer{until, 0, kInvalidNode, [] {}});
    io_wake(*io);
  }
}

void NetRuntime::io_wake(IoThread& io) {
  if (io.wake_fd < 0) return;
  const std::uint64_t one = 1;
  [[maybe_unused]] const auto n = ::write(io.wake_fd, &one, sizeof one);
}

void NetRuntime::io_wake_all() {
  for (auto& io : io_threads_) io_wake(*io);
}

void NetRuntime::io_start_connect(std::size_t peer) {
  PeerLink& link = *links_[peer];
  SNOW_CHECK(link.initiator);
  // A backoff timer and a broadcast_shutdown kick can both request a dial;
  // whoever runs second must no-op instead of leaking the in-flight fd.
  if (link.state != PeerLink::State::kIdle || link.fd >= 0) return;
  std::string err;
  const NetPeerAddr& addr = opts_.peers[peer];
  const int fd = net::tcp_connect_start(addr.host, addr.port, err);
  if (fd < 0) {
    io_schedule_reconnect(peer);
    return;
  }
  link.fd = fd;
  ++link.gen;
  link.state = PeerLink::State::kConnecting;
  epoll_event ev{};
  ev.events = EPOLLOUT;
  link.epoll_mask = EPOLLOUT;
  ev.data.u64 = peer_tag(peer, link.gen);
  SNOW_CHECK(::epoll_ctl(home(peer).epoll_fd, EPOLL_CTL_ADD, fd, &ev) == 0);
}

void NetRuntime::io_schedule_reconnect(std::size_t peer) {
  PeerLink& link = *links_[peer];
  link.backoff_ns = link.backoff_ns == 0
                        ? opts_.transport.reconnect_initial_ns
                        : std::min<TimeNs>(link.backoff_ns * 2, opts_.transport.reconnect_max_ns);
  push_timer(home(peer), UserTimer{now_ns() + link.backoff_ns, 0, kInvalidNode,
                                   [this, peer] { io_start_connect(peer); }});
}

void NetRuntime::close_link(std::size_t peer) {
  PeerLink& link = *links_[peer];
  if (link.fd >= 0) {
    ::epoll_ctl(home(peer).epoll_fd, EPOLL_CTL_DEL, link.fd, nullptr);
    ::close(link.fd);
    link.fd = -1;
    ++link.gen;  // events registered for the closed connection are now stale
  }
  link.epoll_mask = 0;
  // Frame-aligned recovery: the peer's decoder dies with the connection, so
  // a frame already cut by a partial write is unrecoverable — but whole
  // frames the socket never touched are not.  take_unsent() drops the
  // partially-written front frame (if any) and returns the rest, which go
  // back to the FRONT of the outbox (they are older than anything queued
  // since), so a reconnect loses at most the one partially-written frame
  // plus bytes TCP itself dropped.
  auto unsent = link.wq.take_unsent();
  if (!unsent.empty()) {
    std::lock_guard<std::mutex> lock(link.out_mu);
    while (!unsent.empty()) {
      link.outbox_bytes += unsent.back().size();
      link.outbox.push_front(std::move(unsent.back()));
      unsent.pop_back();
    }
  }
  link.staged.store(0, std::memory_order_release);
  link.decoder = net::FrameDecoder{};
  const bool was_up = link.state == PeerLink::State::kUp;
  link.state = PeerLink::State::kIdle;
  if (was_up && link.initiator) {
    std::lock_guard<std::mutex> lock(conn_mu_);
    --initiated_up_;
  }
}

void NetRuntime::io_link_failed(std::size_t peer, const std::string& why) {
  PeerLink& link = *links_[peer];
  // Quiet once the fleet is ending: peers closing their sockets after a
  // SHUTDOWN broadcast is the expected teardown, not a fault.
  if (!stopping_.load(std::memory_order_acquire) &&
      !shutdown_.load(std::memory_order_acquire) && link.ever_connected) {
    std::fprintf(stderr, "[snowkit-net %zu] link to %zu dropped: %s\n", opts_.index, peer,
                 why.c_str());
  }
  close_link(peer);
  if (link.initiator && !stopping_.load(std::memory_order_acquire)) {
    io_schedule_reconnect(peer);
  }
  // Failure suspicion for replicated shards: if the link stays down past the
  // grace period, watchers of that peer's nodes get a NodeDownNotice.  Only
  // once per outage, and only for peers that were ever actually up — dial
  // retries against a fleet still coming up are not a death.
  if (link.ever_connected && !link.down_notice_armed &&
      !stopping_.load(std::memory_order_acquire) &&
      !shutdown_.load(std::memory_order_acquire)) {
    link.down_notice_armed = true;
    push_timer(home(peer),
               UserTimer{now_ns() + static_cast<TimeNs>(opts_.transport.peer_down_grace_ns), 0,
                         kInvalidNode, [this, peer] { io_peer_down_check(peer); }});
  }
}

void NetRuntime::io_peer_down_check(std::size_t peer) {
  PeerLink& link = *links_[peer];
  if (link.state.load(std::memory_order_acquire) == PeerLink::State::kUp) {
    // Recovered within the grace period; a future drop re-arms.
    link.down_notice_armed = false;
    return;
  }
  if (stopping_.load(std::memory_order_acquire) ||
      shutdown_.load(std::memory_order_acquire)) {
    return;
  }
  std::vector<std::pair<NodeId, NodeId>> watches;
  {
    std::lock_guard<std::mutex> lock(watch_mu_);
    watches = watches_;
  }
  for (const auto& [watcher, watched] : watches) {
    if (owner_of(watched) != peer) continue;
    // Injected through the trusted local-bytes mailbox path, attributed to
    // the watched node itself — exactly how SimRuntime::crash delivers it.
    enqueue_local(watcher,
                  Mailbox::Item{watched,
                                encode_message(Message{kInvalidTxn, NodeDownNotice{watched}}),
                                nullptr});
  }
  // Stays armed: one suspicion per outage; note_connected re-enables.
}

void NetRuntime::note_connected(std::size_t peer) {
  PeerLink& link = *links_[peer];
  if (link.ever_connected) {
    stats_.reconnects.fetch_add(1, std::memory_order_relaxed);
  }
  link.ever_connected = true;
  link.backoff_ns = 0;
  link.down_notice_armed = false;  // next outage may suspect again
  if (link.initiator) {
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      ++initiated_up_;
    }
    conn_cv_.notify_all();
  }
}

void NetRuntime::io_on_connect_ready(std::size_t peer) {
  PeerLink& link = *links_[peer];
  int soerr = 0;
  socklen_t len = sizeof soerr;
  if (::getsockopt(link.fd, SOL_SOCKET, SO_ERROR, &soerr, &len) != 0 || soerr != 0) {
    io_link_failed(peer, "connect failed");
    return;
  }
  link.state = PeerLink::State::kUp;
  // HELLO leads every connection (and every reconnection) so the acceptor
  // can route this stream before any message frame arrives.
  std::vector<std::uint8_t> hello;
  net::append_hello(hello, opts_.index);
  link.wq.push(std::move(hello));
  link.staged.store(link.wq.pending_bytes(), std::memory_order_release);
  io_update_events(peer);
  note_connected(peer);
}

void NetRuntime::io_flush(std::size_t peer) {
  PeerLink& link = *links_[peer];
  if (link.state != PeerLink::State::kUp || link.fd < 0) return;
  IoThread& io = home(peer);
  thread_local std::vector<struct iovec> iovbuf;
  thread_local std::vector<std::vector<std::uint8_t>> spent;
  while (true) {
    if (link.wq.empty()) {
      std::lock_guard<std::mutex> lock(link.out_mu);
      if (link.outbox.empty()) break;
      while (!link.outbox.empty()) {
        link.wq.push(std::move(link.outbox.front()));
        link.outbox.pop_front();
      }
      link.outbox_bytes = 0;
      // Publish BEFORE writing: stop()'s drain loop must never observe the
      // window where these frames have left the outbox but staged still
      // reads 0, or it would tear down under a queued SHUTDOWN.
      link.staged.store(link.wq.pending_bytes(), std::memory_order_release);
      link.out_cv.notify_all();  // backpressured senders may proceed
    }
    // Coalesce: one sendmsg gathers up to coalesce_max_frames /
    // coalesce_max_bytes of queued frames; a partial write resumes at the
    // exact byte offset on the next gather (WriteCoalescer's contract).
    const std::size_t niov = link.wq.gather(io.slices.data(), io.slices.size());
    if (niov == 0) break;
    iovbuf.resize(niov);
    std::size_t offered = 0;
    for (std::size_t i = 0; i < niov; ++i) {
      iovbuf[i].iov_base = const_cast<std::uint8_t*>(io.slices[i].data);
      iovbuf[i].iov_len = io.slices[i].len;
      offered += io.slices[i].len;
    }
    msghdr mh{};
    mh.msg_iov = iovbuf.data();
    mh.msg_iovlen = niov;
    // MSG_NOSIGNAL: a peer that closed/RST between epoll_wait and this write
    // must yield EPIPE (handled below as a link failure), never a
    // process-killing SIGPIPE.  This is the transport's only socket write,
    // so no process-global signal disposition is needed (or touched).
    const auto n = ::sendmsg(link.fd, &mh, MSG_NOSIGNAL);
    if (n > 0) {
      stats_.bytes_sent.fetch_add(static_cast<std::uint64_t>(n), std::memory_order_relaxed);
      stats_.send_syscalls.fetch_add(1, std::memory_order_relaxed);
      if (static_cast<std::size_t>(n) < offered) {
        stats_.short_writes.fetch_add(1, std::memory_order_relaxed);
      }
      spent.clear();
      const std::size_t completed = link.wq.consume(static_cast<std::size_t>(n), &spent);
      stats_.frames_written.fetch_add(completed, std::memory_order_relaxed);
      if (!spent.empty()) {
        // Recycle fully-written frame buffers for future send() calls, with
        // the same bounds the mailboxes use: bounded count, bounded
        // capacity — one burst of outsized frames must not pin peak-sized
        // allocations forever.
        std::lock_guard<std::mutex> lock(link.out_mu);
        for (auto& b : spent) {
          if (link.pool.size() >= kMaxPooledBuffers) break;
          if (b.capacity() > kMaxPooledCapacity) continue;
          b.clear();
          link.pool.push_back(std::move(b));
        }
        spent.clear();
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    io_link_failed(peer, "write error");
    return;
  }
  link.staged.store(link.wq.pending_bytes(), std::memory_order_release);
  io_update_events(peer);
}

/// Recomputes a live link's epoll interest: EPOLLIN unless inbound flow
/// control paused reading, EPOLLOUT only while staged bytes are pending
/// (the per-iteration sweep handles freshly queued outboxes).  The mask is
/// cached so an unchanged interest skips the epoll_ctl syscall entirely.
/// ERR/HUP are always reported by the kernel regardless of the mask, so
/// drops are still detected while fully unsubscribed.
void NetRuntime::io_update_events(std::size_t peer) {
  PeerLink& link = *links_[peer];
  if (link.fd < 0 || link.state != PeerLink::State::kUp) return;
  IoThread& io = home(peer);
  epoll_event ev{};
  ev.events = (io.inbound_paused_applied ? 0u : EPOLLIN) |
              (!link.wq.empty() ? EPOLLOUT : 0u);
  if (ev.events == link.epoll_mask) return;
  ev.data.u64 = peer_tag(peer, link.gen);
  if (::epoll_ctl(io.epoll_fd, EPOLL_CTL_MOD, link.fd, &ev) == 0) {
    link.epoll_mask = ev.events;
  }
}

/// Pauses/resumes reading around the inbound byte budget: when workers lag,
/// queued-but-undelivered frames are capped, TCP's own flow control pushes
/// back to the senders, and their outbox caps block send() — bounded memory
/// end to end, with no blocking on any I/O thread.  The pause decision is
/// global (one budget per process); each thread applies it to its own links.
void NetRuntime::io_apply_inbound_flow_control(IoThread& io) {
  const std::size_t budget = opts_.transport.inbound_budget_bytes;
  const std::size_t queued = inbound_bytes_.load(std::memory_order_acquire);
  const std::size_t resume_below = std::max<std::size_t>(1, budget / 2);
  bool paused = inbound_paused_.load(std::memory_order_acquire);
  if (!paused && queued >= budget) {
    bool expected = false;
    if (inbound_paused_.compare_exchange_strong(expected, true, std::memory_order_acq_rel)) {
      stats_.inbound_pauses.fetch_add(1, std::memory_order_relaxed);
    }
    paused = true;
  } else if (paused && queued < resume_below) {
    inbound_paused_.store(false, std::memory_order_release);
    paused = false;
  }
  // An injected slow-reader stall ORs in on top: the budget state machine
  // above is untouched, the sockets just stay unsubscribed until the stall
  // deadline passes (a timer pushed by inject_read_stall guarantees an
  // iteration runs then to resubscribe).
  if (now_ns() < stall_until_ns_.load(std::memory_order_acquire)) paused = true;
  if (paused != io.inbound_paused_applied) {
    io.inbound_paused_applied = paused;
    for (const std::size_t peer : io.links) io_update_events(peer);
  }
}

bool NetRuntime::io_handle_frame(IoThread& io, std::size_t peer, net::Frame& f) {
  if (f.type == net::FrameType::kShutdown) {
    shutdown_.store(true, std::memory_order_release);
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
    }
    conn_cv_.notify_all();
    return true;
  }
  // A link's decoder is past the HELLO, so every other frame is a MSG.
  net::MsgHeader hdr;
  std::string err;
  if (!net::parse_msg_header(f.body, hdr, err)) {
    io_link_failed(peer, "bad msg frame: " + err);
    return false;
  }
  // A routable fleet shares ONE config, so a frame addressed to a node
  // we do not own means either divergent fleet configs or a hostile /
  // confused peer.  The HELLO handshake is unauthenticated, so this is
  // untrusted input: treat it like any other malformed traffic — log and
  // drop the connection — never abort the process.
  if (hdr.to >= node_count() || !owns(hdr.to)) {
    io_link_failed(peer, "misrouted frame for node " + std::to_string(hdr.to) +
                             " not owned by process " + std::to_string(opts_.index) +
                             " (divergent fleet configs?)");
    return false;
  }
  // The sender node is equally untrusted: a foreign `from` would flow
  // into the protocol handler's reply send(), whose to<node_count()
  // invariant check would abort THIS process.  Legitimate traffic only
  // ever carries a from-node owned by the peer the stream came from.
  if (hdr.from >= node_count() || owner_of(hdr.from) != peer) {
    io_link_failed(peer, "frame with foreign sender node " + std::to_string(hdr.from) +
                             " not owned by peer " + std::to_string(peer));
    return false;
  }
  Mailbox::Item item;
  item.from = hdr.from;
  item.link_gen = links_[peer]->gen;
  // Strip the routing header in place and MOVE the body: one memmove,
  // zero allocations on the I/O thread's per-frame path.
  f.body.erase(f.body.begin(),
               f.body.begin() + static_cast<std::ptrdiff_t>(hdr.payload_offset));
  item.bytes = std::move(f.body);
  // Charge the inbound budget (refunded by the worker after delivery);
  // +64 floors the cost of tiny frames so a flood of 2-byte payloads
  // still trips the pause.
  item.charge = item.bytes.size() + 64;
  inbound_bytes_.fetch_add(item.charge, std::memory_order_relaxed);
  // Batch decode: bucket per destination node; io_deliver_ready flushes
  // each bucket as ONE mailbox burst (one lock, one notify) per epoll
  // iteration instead of per frame.  Per-sender FIFO holds: one ordered
  // stream per peer, decoded in order, appended in order.
  auto& bucket = io.ready[hdr.to];
  if (bucket.empty()) io.touched.push_back(hdr.to);
  bucket.push_back(std::move(item));
  stats_.frames_received.fetch_add(1, std::memory_order_relaxed);
  return true;
}

/// Flushes this iteration's decoded-frame buckets into their mailboxes, one
/// burst per node.  Items were bucketed in arrival order, so per-sender FIFO
/// delivery is preserved through the batch.
void NetRuntime::io_deliver_ready(IoThread& io) {
  for (const NodeId node : io.touched) {
    auto& items = io.ready[node];
    if (items.empty()) continue;
    Mailbox* mb = mailboxes_[node].get();
    {
      std::lock_guard<std::mutex> lock(mb->mu);
      for (auto& item : items) mb->queue.push_back(std::move(item));
    }
    mb->cv.notify_one();
    stats_.mailbox_bursts.fetch_add(1, std::memory_order_relaxed);
    items.clear();
  }
  io.touched.clear();
}

void NetRuntime::io_read(IoThread& io, std::size_t peer) {
  PeerLink& link = *links_[peer];
  while (link.fd >= 0) {
    const auto n = ::read(link.fd, io.rbuf.data(), io.rbuf.size());
    if (n > 0) {
      stats_.recv_syscalls.fetch_add(1, std::memory_order_relaxed);
      stats_.bytes_received.fetch_add(static_cast<std::uint64_t>(n), std::memory_order_relaxed);
      link.decoder.feed(io.rbuf.data(), static_cast<std::size_t>(n));
      net::Frame f;
      while (true) {
        const auto st = link.decoder.next(f);
        if (st == net::FrameDecoder::Status::kNeedMore) break;
        if (st == net::FrameDecoder::Status::kError) {
          io_link_failed(peer, "stream corrupt: " + link.decoder.error());
          return;
        }
        if (!io_handle_frame(io, peer, f)) return;
      }
      if (static_cast<std::size_t>(n) < io.rbuf.size()) return;  // drained
      // A peer that keeps the buffer full must not let this loop outrun the
      // inbound budget; stop here and let the end-of-iteration flow-control
      // check pause reading properly.
      if (inbound_bytes_.load(std::memory_order_relaxed) >=
          opts_.transport.inbound_budget_bytes) {
        return;
      }
      continue;
    }
    if (n == 0) {
      io_link_failed(peer, "peer closed");
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    io_link_failed(peer, "read error");
    return;
  }
}

void NetRuntime::io_accept_all(IoThread& io) {
  while (true) {
    std::string err;
    const int fd = net::tcp_accept(listen_fd_, err);
    if (fd < 0) return;
    std::size_t slot = pending_.size();
    std::size_t live = 0;
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      if (pending_[i].fd < 0) {
        if (slot == pending_.size()) slot = i;
      } else {
        ++live;
      }
    }
    if (live >= opts_.transport.max_pending_conns) {
      // Handshake flood: refuse outright rather than pin another fd.  A
      // legitimate fleet peer retries with backoff and gets a slot once the
      // deadline reap (io_reap_stale_pending) clears the squatters.
      std::fprintf(stderr, "[snowkit-net %zu] rejecting connection: pending handshake cap\n",
                   opts_.index);
      ::close(fd);
      continue;
    }
    if (slot == pending_.size()) pending_.emplace_back();
    pending_[slot].fd = fd;
    pending_[slot].decoder = net::FrameDecoder::accepting();
    pending_[slot].accepted_ns = now_ns();
    pending_[slot].fed_bytes = 0;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kTagPendingBit | slot;
    SNOW_CHECK(::epoll_ctl(io.epoll_fd, EPOLL_CTL_ADD, fd, &ev) == 0);
  }
}

/// Drops accepted connections that have not completed their HELLO within the
/// deadline: pre-HELLO peers are untrusted and must not hold fds forever.
void NetRuntime::io_reap_stale_pending(IoThread& io) {
  const TimeNs now = now_ns();
  for (PendingConn& pc : pending_) {
    if (pc.fd < 0 || now - pc.accepted_ns < opts_.transport.pending_handshake_timeout_ns) {
      continue;
    }
    std::fprintf(stderr, "[snowkit-net %zu] rejecting connection: handshake timeout\n",
                 opts_.index);
    ::epoll_ctl(io.epoll_fd, EPOLL_CTL_DEL, pc.fd, nullptr);
    ::close(pc.fd);
    pc.fd = -1;
  }
}

void NetRuntime::io_read_pending(IoThread& io, std::size_t slot) {
  if (slot >= pending_.size() || pending_[slot].fd < 0) return;
  PendingConn& pc = pending_[slot];
  std::uint8_t buf[4096];
  const auto n = ::read(pc.fd, buf, sizeof buf);
  auto drop = [&] {
    ::epoll_ctl(io.epoll_fd, EPOLL_CTL_DEL, pc.fd, nullptr);
    ::close(pc.fd);
    pc.fd = -1;
  };
  if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)) {
    drop();
    return;
  }
  if (n < 0) return;
  pc.fed_bytes += static_cast<std::size_t>(n);
  pc.decoder.feed(buf, static_cast<std::size_t>(n));
  net::Frame f;
  const auto st = pc.decoder.next(f);
  if (st == net::FrameDecoder::Status::kNeedMore) {
    if (pc.fed_bytes > opts_.transport.max_pending_handshake_bytes) {
      // A "HELLO" still incomplete after this many bytes is never going to
      // be one (e.g. a huge length prefix trickling a body in) — don't let
      // an unauthenticated peer buffer up to kMaxFrameBytes.
      std::fprintf(stderr, "[snowkit-net %zu] rejecting connection: oversized handshake\n",
                   opts_.index);
      drop();
    }
    return;
  }
  net::HelloBody hello;
  std::string err;
  // An accepting decoder's first frame is always a HELLO; a compact frame
  // here (a zero byte included) is a decoder error, never a SHUTDOWN.
  if (st == net::FrameDecoder::Status::kError || !net::parse_hello(f.body, hello, err)) {
    std::fprintf(stderr, "[snowkit-net %zu] rejecting connection: bad hello (%s)\n",
                 opts_.index,
                 st == net::FrameDecoder::Status::kError ? pc.decoder.error().c_str()
                                                         : err.c_str());
    drop();
    return;
  }
  const std::size_t peer = hello.process_index;
  if (peer <= opts_.index || peer >= links_.size()) {
    std::fprintf(stderr, "[snowkit-net %zu] rejecting hello from invalid peer index %zu\n",
                 opts_.index, peer);
    drop();
    return;
  }
  // Greeted: hand the connection to the peer's home thread.  ONLY that
  // thread may touch the PeerLink (including displacing a previous
  // connection), so even home==0 goes through the handoff queue — it is
  // processed later this same iteration.
  ::epoll_ctl(io.epoll_fd, EPOLL_CTL_DEL, pc.fd, nullptr);
  IoThread& h = home(peer);
  {
    std::lock_guard<std::mutex> lock(h.handoff_mu);
    h.handoffs.push_back(Handoff{peer, pc.fd, std::move(pc.decoder)});
  }
  pc.fd = -1;
  h.pending.store(true, std::memory_order_seq_cst);
  if (h.armed.load(std::memory_order_seq_cst)) io_wake(h);
}

/// Adopts connections greeted on thread 0: registers the fd under a fresh
/// generation, displaces any previous connection for the peer, and drains
/// frames that arrived in the same chunk as the HELLO.
void NetRuntime::io_adopt_handoffs(IoThread& io) {
  std::vector<Handoff> handoffs;
  {
    std::lock_guard<std::mutex> lock(io.handoff_mu);
    handoffs.swap(io.handoffs);
  }
  for (Handoff& h : handoffs) {
    PeerLink& link = *links_[h.peer];
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(h.fd);
      continue;
    }
    if (link.fd >= 0) close_link(h.peer);  // peer reconnected before we saw the drop
    link.fd = h.fd;
    ++link.gen;
    link.state = PeerLink::State::kUp;
    link.decoder = std::move(h.decoder);  // bytes buffered past the HELLO carry over
    epoll_event ev{};
    ev.events = io.inbound_paused_applied ? 0u : EPOLLIN;
    link.epoll_mask = ev.events;
    ev.data.u64 = peer_tag(h.peer, link.gen);
    SNOW_CHECK(::epoll_ctl(io.epoll_fd, EPOLL_CTL_ADD, link.fd, &ev) == 0);
    note_connected(h.peer);
    // Frames that arrived in the same chunk as the HELLO are already
    // buffered in the carried-over decoder.
    net::Frame more;
    while (link.fd >= 0) {
      const auto st = link.decoder.next(more);
      if (st == net::FrameDecoder::Status::kNeedMore) break;
      if (st == net::FrameDecoder::Status::kError) {
        io_link_failed(h.peer, "stream corrupt: " + link.decoder.error());
        break;
      }
      if (!io_handle_frame(io, h.peer, more)) break;
    }
  }
}

void NetRuntime::io_fire_timers(IoThread& io) {
  while (true) {
    UserTimer t;
    {
      std::lock_guard<std::mutex> lock(io.timer_mu);
      if (io.timers.empty() || io.timers.front().due_ns > now_ns()) break;
      std::pop_heap(io.timers.begin(), io.timers.end(), std::greater<>());
      t = std::move(io.timers.back());
      io.timers.pop_back();
    }
    if (t.node == kInvalidNode) {
      t.fn();  // internal (reconnect/drop) callback: runs on the home thread
    } else {
      enqueue_local(t.node, Mailbox::Item{kInvalidNode, {}, std::move(t.fn)});
    }
  }
}

void NetRuntime::io_rearm_timerfd(IoThread& io) {
  TimeNs due = 0;
  {
    std::lock_guard<std::mutex> lock(io.timer_mu);
    if (!io.timers.empty()) due = io.timers.front().due_ns;
  }
  if (due == io.armed_due) return;  // unchanged deadline: skip the syscall
  itimerspec its{};
  if (due != 0) {
    const TimeNs now = now_ns();
    const TimeNs delta = due > now ? due - now : 1;
    its.it_value.tv_sec = static_cast<time_t>(delta / 1'000'000'000ull);
    its.it_value.tv_nsec = static_cast<long>(delta % 1'000'000'000ull);
    if (its.it_value.tv_sec == 0 && its.it_value.tv_nsec == 0) its.it_value.tv_nsec = 1;
  }
  ::timerfd_settime(io.timer_fd, 0, &its, nullptr);
  io.armed_due = due;
}

void NetRuntime::io_loop(IoThread& io) {
  for (const std::size_t peer : io.links) {
    if (links_[peer]->initiator) io_start_connect(peer);
  }
  epoll_event events[128];
  while (!stopping_.load(std::memory_order_acquire)) {
    // Wakeup elision handshake (see IoThread): arm, then re-check pending.
    // A sender that queued after our last sweep either sees armed==true and
    // writes the eventfd, or stored pending before our exchange — both wake
    // us.  Under load this skips both the eventfd write and the epoll_wait.
    io.armed.store(true, std::memory_order_seq_cst);
    int n = 0;
    if (io.pending.exchange(false, std::memory_order_seq_cst)) {
      io.armed.store(false, std::memory_order_seq_cst);
    } else {
      io_rearm_timerfd(io);
      n = ::epoll_wait(io.epoll_fd, events, 128, 200);
      io.armed.store(false, std::memory_order_seq_cst);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if (n > 0) io.wakeups.fetch_add(1, std::memory_order_relaxed);
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      const std::uint32_t evs = events[i].events;
      if (tag == kTagWake) {
        std::uint64_t tmp;
        while (::read(io.wake_fd, &tmp, sizeof tmp) > 0) {
        }
      } else if (tag == kTagListen) {
        io_accept_all(io);
      } else if (tag == kTagTimer) {
        std::uint64_t tmp;
        while (::read(io.timer_fd, &tmp, sizeof tmp) > 0) {
        }
        io.armed_due = 0;  // one-shot fired; force a rearm
      } else if (tag & kTagPeerBit) {
        const std::size_t peer = static_cast<std::size_t>(tag & kTagPeerMask);
        const std::uint32_t gen = static_cast<std::uint32_t>(tag >> 24);
        if (peer >= links_.size()) continue;
        PeerLink& link = *links_[peer];
        // Stale event: the connection this event was registered for has
        // since been closed (and possibly replaced — even on the SAME fd
        // number, which the kernel reuses — by a reconnection in this very
        // batch).  Acting on it would tear down the healthy new link, or
        // promote a still-in-flight connect to kUp.
        if (link.fd < 0 || link.gen != gen) continue;
        if (link.state == PeerLink::State::kConnecting) {
          io_on_connect_ready(peer);
          if (link.state == PeerLink::State::kUp) io_flush(peer);
          continue;
        }
        if (evs & (EPOLLERR | EPOLLHUP)) {
          io_link_failed(peer, "socket error/hup");
          continue;
        }
        if (evs & EPOLLIN) io_read(io, peer);
        if (link.gen == gen && link.fd >= 0 && (evs & EPOLLOUT)) io_flush(peer);
      } else if (tag & kTagPendingBit) {
        io_read_pending(io, static_cast<std::size_t>(tag & ~kTagPendingBit));
      }
    }
    io_adopt_handoffs(io);
    io_fire_timers(io);
    if (io.id == 0) io_reap_stale_pending(io);
    if (io.kick_connects.load(std::memory_order_acquire)) {
      // broadcast_shutdown queued SHUTDOWN frames; redial links sitting in
      // reconnect backoff NOW so those frames can still flush before stop().
      for (const std::size_t peer : io.links) {
        if (links_[peer]->initiator && links_[peer]->state == PeerLink::State::kIdle) {
          io_start_connect(peer);
        }
      }
      // Cleared only AFTER the dials: stop()'s drain skip reads this flag
      // and must never observe it false while a kicked link is still kIdle.
      io.kick_connects.store(false, std::memory_order_release);
    }
    io_apply_inbound_flow_control(io);
    // Flush any of our links with queued outbound frames (sends mark the
    // home thread pending but do not name the peer; per-thread link sets
    // are small, so a sweep is cheap).
    for (const std::size_t peer : io.links) {
      PeerLink& link = *links_[peer];
      if (link.state != PeerLink::State::kUp) continue;
      bool pending_out = !link.wq.empty();
      if (!pending_out) {
        std::lock_guard<std::mutex> lock(link.out_mu);
        pending_out = !link.outbox.empty();
      }
      if (pending_out) io_flush(peer);
    }
    // One mailbox burst per touched node for everything decoded this
    // iteration — the read-side half of the batching story.
    io_deliver_ready(io);
  }
  // Final flush attempt, then close our links (and, on thread 0, the
  // pending set).  Deliver anything decoded by the final reads.
  for (const std::size_t peer : io.links) {
    if (links_[peer]->state == PeerLink::State::kUp) io_flush(peer);
    close_link(peer);
  }
  io_deliver_ready(io);
  {
    std::lock_guard<std::mutex> lock(io.handoff_mu);
    for (Handoff& h : io.handoffs) {
      if (h.fd >= 0) ::close(h.fd);
    }
    io.handoffs.clear();
  }
  if (io.id == 0) {
    for (auto& pc : pending_) {
      if (pc.fd >= 0) {
        ::close(pc.fd);
        pc.fd = -1;
      }
    }
  }
}

void NetRuntime::wait_connected() {
  std::unique_lock<std::mutex> lock(conn_mu_);
  conn_cv_.wait(lock, [&] {
    return initiated_up_ == initiated_total_ || stopping_.load(std::memory_order_acquire);
  });
}

bool NetRuntime::wait_connected_for(TimeNs timeout_ns) {
  std::unique_lock<std::mutex> lock(conn_mu_);
  return conn_cv_.wait_for(lock, std::chrono::nanoseconds(timeout_ns), [&] {
    return initiated_up_ == initiated_total_ || stopping_.load(std::memory_order_acquire);
  });
}

void NetRuntime::broadcast_shutdown() {
  // The broadcaster knows the fleet is ending: mark locally too, so
  // peers' sockets closing afterwards is treated as teardown, not faults.
  shutdown_.store(true, std::memory_order_release);
  for (std::size_t i = 0; i < links_.size(); ++i) {
    if (i == opts_.index) continue;
    PeerLink& link = *links_[i];
    std::vector<std::uint8_t> frame;
    net::append_shutdown(frame);
    std::lock_guard<std::mutex> lock(link.out_mu);
    link.outbox_bytes += frame.size();
    link.outbox.push_back(std::move(frame));
  }
  // Links down in reconnect backoff would silently eat their SHUTDOWN;
  // have every I/O thread redial its own immediately.
  for (auto& io : io_threads_) io->kick_connects.store(true, std::memory_order_release);
  io_wake_all();
}

void NetRuntime::run_until_shutdown() {
  std::unique_lock<std::mutex> lock(conn_mu_);
  conn_cv_.wait(lock, [&] {
    return shutdown_.load(std::memory_order_acquire) ||
           stopping_.load(std::memory_order_acquire);
  });
}

void NetRuntime::request_shutdown() {
  {
    // Take conn_mu_ so a run_until_shutdown() waiter between its predicate
    // check and its wait cannot miss the notify.
    std::lock_guard<std::mutex> lock(conn_mu_);
    shutdown_.store(true, std::memory_order_release);
  }
  conn_cv_.notify_all();
}

TransportStats NetRuntime::transport_stats() const {
  TransportStats s;
  s.frames_sent = stats_.frames_sent.load(std::memory_order_relaxed);
  s.frames_received = stats_.frames_received.load(std::memory_order_relaxed);
  s.bytes_sent = stats_.bytes_sent.load(std::memory_order_relaxed);
  s.bytes_received = stats_.bytes_received.load(std::memory_order_relaxed);
  s.send_syscalls = stats_.send_syscalls.load(std::memory_order_relaxed);
  s.frames_written = stats_.frames_written.load(std::memory_order_relaxed);
  s.short_writes = stats_.short_writes.load(std::memory_order_relaxed);
  s.recv_syscalls = stats_.recv_syscalls.load(std::memory_order_relaxed);
  s.mailbox_bursts = stats_.mailbox_bursts.load(std::memory_order_relaxed);
  s.reconnects = stats_.reconnects.load(std::memory_order_relaxed);
  s.backpressure_waits = stats_.backpressure_waits.load(std::memory_order_relaxed);
  s.inbound_pauses = stats_.inbound_pauses.load(std::memory_order_relaxed);
  s.churn_drops = stats_.churn_drops.load(std::memory_order_relaxed);
  s.churn_stalls = stats_.churn_stalls.load(std::memory_order_relaxed);
  s.epoll_wakeups.reserve(io_threads_.size());
  for (const auto& io : io_threads_) {
    s.epoll_wakeups.push_back(io->wakeups.load(std::memory_order_relaxed));
  }
  return s;
}

void NetRuntime::watch_node(NodeId watcher, NodeId watched) {
  SNOW_CHECK_MSG(owns(watcher), "watch_node by remote node " << watcher);
  std::lock_guard<std::mutex> lock(watch_mu_);
  const auto pair = std::make_pair(watcher, watched);
  if (std::find(watches_.begin(), watches_.end(), pair) != watches_.end()) return;
  watches_.push_back(pair);
}

#else  // !__linux__ — constructor already threw; keep the linker satisfied.

void NetRuntime::start() { SNOW_UNREACHABLE("NetRuntime on non-Linux"); }
void NetRuntime::stop() {}
void NetRuntime::send(NodeId, NodeId, Message) { SNOW_UNREACHABLE("NetRuntime on non-Linux"); }
void NetRuntime::post(NodeId, std::function<void()>) {
  SNOW_UNREACHABLE("NetRuntime on non-Linux");
}
void NetRuntime::post_after(NodeId, TimeNs, std::function<void()>) {
  SNOW_UNREACHABLE("NetRuntime on non-Linux");
}
void NetRuntime::push_timer(IoThread&, UserTimer) {}
void NetRuntime::enqueue_local(NodeId, Mailbox::Item) {}
void NetRuntime::request_link_drop(std::size_t, std::uint32_t) {}
void NetRuntime::inject_link_drop(std::size_t) {}
void NetRuntime::inject_read_stall(TimeNs) {}
void NetRuntime::worker(NodeId) {}
void NetRuntime::io_loop(IoThread&) {}
void NetRuntime::io_wake(IoThread&) {}
void NetRuntime::io_wake_all() {}
void NetRuntime::io_update_events(std::size_t) {}
void NetRuntime::io_apply_inbound_flow_control(IoThread&) {}
void NetRuntime::io_start_connect(std::size_t) {}
void NetRuntime::io_schedule_reconnect(std::size_t) {}
void NetRuntime::io_link_failed(std::size_t, const std::string&) {}
void NetRuntime::io_on_connect_ready(std::size_t) {}
void NetRuntime::io_flush(std::size_t) {}
void NetRuntime::io_read(IoThread&, std::size_t) {}
bool NetRuntime::io_handle_frame(IoThread&, std::size_t, net::Frame&) { return false; }
void NetRuntime::io_deliver_ready(IoThread&) {}
void NetRuntime::io_adopt_handoffs(IoThread&) {}
void NetRuntime::io_accept_all(IoThread&) {}
void NetRuntime::io_reap_stale_pending(IoThread&) {}
void NetRuntime::io_read_pending(IoThread&, std::size_t) {}
void NetRuntime::io_fire_timers(IoThread&) {}
void NetRuntime::io_rearm_timerfd(IoThread&) {}
void NetRuntime::close_link(std::size_t) {}
void NetRuntime::note_connected(std::size_t) {}
void NetRuntime::wait_connected() {}
bool NetRuntime::wait_connected_for(TimeNs) { return false; }
void NetRuntime::broadcast_shutdown() {}
void NetRuntime::run_until_shutdown() {}
void NetRuntime::request_shutdown() {}
TransportStats NetRuntime::transport_stats() const { return {}; }
void NetRuntime::watch_node(NodeId, NodeId) {}
void NetRuntime::io_peer_down_check(std::size_t) {}

#endif

}  // namespace snowkit

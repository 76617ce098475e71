// NetRuntime: the multi-process TCP substrate — snowkit's third Runtime.
//
// A fleet is F processes (N server processes + 1 client process).  EVERY
// process builds the same ProtocolSystem from the same SystemConfig, so node
// numbering is identical everywhere; each process then OWNS a partition of
// the node ids (NetOptions::owner) and only owned nodes get executors and
// receive on_start.  A send between two locally-owned nodes goes through the
// local mailbox exactly like ThreadRuntime; a send to a remote node is
// framed (runtime/socket.hpp, snowkit-wire-v10: the codec bytes of
// encode_message_into behind a varint length and a routing header) and
// shipped over a per-peer TCP connection.  Protocols run unmodified: the
// paper's model — clients and servers as separate processes over
// asynchronous reliable channels (§2) — finally matches the deployment.
//
// Transport properties (every knob below is a TransportOptions field —
// runtime/transport_options.hpp is the single configuration surface):
//  * nonblocking sockets driven by `io_threads` epoll threads with PER-LINK
//    AFFINITY: link -> thread `peer % io_threads`, so each link's socket
//    state is touched by exactly one thread, no locks on the socket path.
//    Thread 0 additionally owns the listen socket and the untrusted
//    pre-HELLO pending set; once a HELLO names the peer, the accepted fd is
//    handed off to its home thread (the per-link connection GENERATION in
//    every epoll tag makes event routing and stale-drop safe across the
//    handoff, exactly as it already did across fd reuse);
//  * WRITE-SIDE COALESCING: each flush gathers up to coalesce_max_frames /
//    coalesce_max_bytes of queued frames into one sendmsg, resuming
//    partial writes at any byte offset (net::WriteCoalescer) — frame BYTES
//    are unchanged, only the syscall boundaries move;
//  * READ-SIDE BATCH DECODE: each recv fills a read_chunk_bytes buffer,
//    frames split out in bulk, and decoded messages reach workers as one
//    mailbox burst per (node, epoll iteration) instead of one lock+notify
//    per frame;
//  * per-peer write queues with byte-bounded BACKPRESSURE: a sender whose
//    peer outbox is full blocks in send() until the socket drains — flow
//    control reaches protocol code as scheduling delay, never unbounded
//    memory;
//  * connections are initiated by the HIGHER process index (so the client
//    process, last by convention, dials every server) and retried with
//    exponential backoff — starting the client before the servers just
//    works, and a dropped link re-establishes itself;
//  * FIFO per (sender, receiver) pair is preserved: one ordered TCP stream
//    per process pair, frames coalesce in queue order, batches deliver in
//    arrival order into the receiver's mailbox;
//  * post_after timers ride a per-thread timerfd in the epoll loops, so the
//    open-loop WorkloadDriver paces wall-clock arrivals unchanged.
//
// Delivery is reliable WHILE connected; frames queued for a peer survive
// reconnects — a drop loses at most the one frame cut by a partial write
// plus bytes already handed to the dead socket (TCP's contract).  The SNOW
// protocols tolerate that only at fleet shutdown, where the SHUTDOWN frame
// (broadcast_shutdown) already ends the run; mid-run process crashes are out
// of scope for snowkit-wire-v10.
//
// Trust model: a peer's only credential is its unauthenticated HELLO, so
// every byte off the wire is handled as untrusted input — malformed frames,
// misrouted headers, foreign sender nodes and undecodable payloads drop the
// connection, and pre-HELLO connections are capped/bounded/deadlined.  Every
// payload that decodes is delivered, so the nodes themselves must not abort
// on one: the version servers (proto/version_server.hpp) answer every read
// request, a missing key with found == false, and drop anything else, and
// any request naming an object id >= k, with a warning; the client nodes (proto/api.hpp's ReadClient and WriteClient)
// drop, with a warning, any reply that is foreign, arrives with no
// transaction in flight or names another transaction.  Two gaps remain
// (ROADMAP item 3).  An in-turn reply forged with the matching txn can still
// trip a reader's protocol-invariant check (algo-b's "watermark-protected
// key" check, for one).  And a finalize naming a version the server never
// stored, or a List position already finalized under another key, trips
// VersionStore::finalize's checks.  What wire-v10 does
// NOT defend against is control-plane spoofing: any process that can reach
// a fleet port and speak the public HELLO can deliver a SHUTDOWN (the
// zero-length frame, stopping the daemon) or displace a genuine peer's
// connection.  Before its HELLO a connection cannot: an accepted stream is
// decoded in the frozen HELLO layout first, where a zero byte is only part
// of a length.  Fleet ports belong
// inside the operator's network boundary (loopback or a private segment);
// an authenticated handshake would need a wire-version bump.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/mailbox.hpp"
#include "runtime/runtime.hpp"
#include "runtime/socket.hpp"
#include "runtime/transport_options.hpp"

namespace snowkit {

/// One fleet process's address.
struct NetPeerAddr {
  std::string host;
  std::uint16_t port{0};
};

struct NetOptions {
  /// This process's index into `peers`.
  std::size_t index{0};
  /// Every fleet process, index-aligned; the entry at `index` is the local
  /// listen address (processes that no higher-index peer dials never listen).
  std::vector<NetPeerAddr> peers;
  /// Node partition: owner(node) is the fleet index hosting that node.  Must
  /// be a pure function, identical in every process (runtime/fleet.hpp
  /// derives it from the shared FleetConfig).
  std::function<std::size_t(NodeId)> owner;
  /// All transport tuning — threading, coalescing, budgets, backoff, the
  /// pre-HELLO bounds.  Validated (fail-fast) by the NetRuntime constructor.
  TransportOptions transport;
};

class NetRuntime final : public Runtime {
 public:
  /// Validates the options (including TransportOptions::validate); throws
  /// std::runtime_error on non-Linux builds (the framing layer is portable,
  /// the epoll transport is not).
  explicit NetRuntime(NetOptions opts);
  ~NetRuntime() override;

  /// Binds the listen socket (if any inbound peer exists), spawns the I/O
  /// threads and one executor per OWNED node, calls on_start on owned nodes,
  /// and starts dialing lower-index peers.  Throws std::runtime_error if the
  /// listen address is unavailable.
  void start();

  /// Tears the fleet links down and joins all threads.  Outboxes are
  /// flushed best-effort (bounded by `drain` below) before sockets close.
  void stop();

  bool owns(NodeId id) const { return opts_.owner(id) == opts_.index; }
  bool owns_node(NodeId id) const override { return owns(id); }
  std::size_t owner_of(NodeId id) const { return opts_.owner(id); }
  std::size_t process_index() const { return opts_.index; }

  void send(NodeId from, NodeId to, Message m) override;
  void post(NodeId node, std::function<void()> fn) override;
  void post_after(NodeId node, TimeNs delay_ns, std::function<void()> fn) override;
  TimeNs now_ns() const override;

  /// Blocks until every link this process INITIATES (to lower-index peers)
  /// has completed its TCP connect + HELLO.  The client process initiates
  /// all its links, so this is "the fleet is reachable" for drivers.
  void wait_connected();

  /// wait_connected with a deadline; false if the fleet did not come up in
  /// time (benches use this to fail loudly instead of hanging on a dead
  /// server process).
  bool wait_connected_for(TimeNs timeout_ns);

  /// Fleet-wide stop: appends a SHUTDOWN frame behind all queued traffic on
  /// every peer link (FIFO, so it arrives after the run's messages) and
  /// flushes.  The local process is NOT stopped — call stop() after.
  void broadcast_shutdown();

  /// Daemon mode: blocks until a SHUTDOWN frame arrives from any peer (or
  /// stop() is called locally).
  void run_until_shutdown();

  /// Local shutdown request: unblocks run_until_shutdown() as if a SHUTDOWN
  /// frame had arrived.  Safe to call from any thread — snowkit_server's
  /// signal thread uses it so SIGTERM takes the same clean-exit path.
  void request_shutdown();
  bool shutdown_requested() const { return shutdown_.load(std::memory_order_acquire); }

  /// Relaxed-atomic snapshot of the typed transport counters (the one stats
  /// seam — runtime/transport_stats.hpp); counters are bumped lock-free on
  /// the hot path, so mid-run snapshots are approximate, quiesced ones exact.
  TransportStats transport_stats() const override;

  /// Churn injection (benches + e2e tests): asks `peer`'s home I/O thread to
  /// drop the live link, exactly as a wire fault would — the initiator side
  /// redials with backoff and the re-established link counts a reconnect.
  /// Asynchronous (the close runs on the home thread); no-op for self, an
  /// out-of-range peer, or a link that is already down.  Safe any thread.
  ///
  /// A drop can cut a partially-written frame (see the reliability note
  /// above), so churn controllers quiesce traffic first — core/churn.hpp
  /// drains the driver's in-flight window to zero before calling this.
  void inject_link_drop(std::size_t peer);

  /// Churn injection: stop reading from EVERY peer for `duration_ns` — a
  /// process-wide slow-reader stall.  Each I/O thread unsubscribes its
  /// sockets from EPOLLIN (the same mechanism as inbound flow control), so
  /// the kernel receive windows fill and TCP pushes back into the peers'
  /// write queues — their backpressure counters, not ours, score the stall.
  /// Reading resumes automatically when the deadline passes.  Safe any
  /// thread; overlapping calls extend the stall to the later deadline.
  void inject_read_stall(TimeNs duration_ns);

  /// Timeout failure detection for replicated shards: when the link to a
  /// peer process stays down for transport.peer_down_grace_ns after a drop,
  /// every locally-owned `watcher` watching a node owned by that peer gets a
  /// NodeDownNotice delivered through its normal mailbox.  This detector can
  /// be WRONG (a slow peer looks dead) — see proto/replica.hpp for what that
  /// costs a 2-replica group.  Reconnecting re-arms it.
  void watch_node(NodeId watcher, NodeId watched) override;

  const NetOptions& options() const { return opts_; }

 private:
  /// Owned-node executors reuse THE mailbox struct (and pooling bounds)
  /// shared with ThreadRuntime — runtime/mailbox.hpp.
  using Mailbox = NodeMailbox;

  // --- peer links (home-I/O-thread state except the locked outbox) ----------
  struct PeerLink {
    enum class State : std::uint8_t {
      kIdle,        ///< inbound peer not yet connected to us.
      kConnecting,  ///< our nonblocking connect is in flight.
      kUp,          ///< link established (HELLO exchanged / sent).
      kSelf,        ///< the local process; never used.
    };
    /// Written by the home I/O thread; read by stop()/broadcast_shutdown()
    /// from other threads, hence atomic.
    std::atomic<State> state{State::kIdle};
    int fd = -1;
    /// Monotonic connection generation, bumped whenever fd is assigned or
    /// closed.  Epoll tags carry it so a stale event queued for an earlier
    /// connection is detectably stale even if the kernel reuses the same fd
    /// number for the replacement socket — and so a pre-HELLO handoff from
    /// thread 0 can never be confused with the connection it displaced.
    std::uint32_t gen = 0;
    bool initiator = false;         ///< we dial (peer index < ours).
    net::FrameDecoder decoder;
    /// Home-thread write staging: whole frames queued for the socket,
    /// gathered into capped sendmsg batches (see socket.hpp).
    net::WriteCoalescer wq;
    /// Cached epoll interest mask so unchanged masks skip the epoll_ctl
    /// syscall on the per-flush path.
    std::uint32_t epoll_mask = 0;
    TimeNs backoff_ns = 0;          ///< current reconnect delay.
    /// One suspicion per outage: set when the grace timer is armed after a
    /// drop, cleared on reconnect.  Home-I/O-thread state.
    bool down_notice_armed = false;
    /// Written by the home I/O thread; also read by stop()'s drain loop
    /// (which skips links that never connected), hence atomic.
    std::atomic<bool> ever_connected{false};

    std::mutex out_mu;               ///< guards outbox/outbox_bytes/pool + drain cv.
    std::condition_variable out_cv;  ///< signaled when outbox drains.
    std::deque<std::vector<std::uint8_t>> outbox;  ///< one whole frame per entry.
    std::size_t outbox_bytes = 0;    ///< backpressure accounting for outbox.
    /// Recycled frame buffers (capacity retained): senders swap their
    /// thread-local framing scratch against one of these, the home I/O
    /// thread returns fully-written buffers — allocation-free steady state,
    /// same pooling rules as the mailboxes.
    std::vector<std::vector<std::uint8_t>> pool;
    /// Unsent staging bytes (wq.pending_bytes()), mirrored atomically by the
    /// home I/O thread so stop()'s drain loop can see frames stuck behind
    /// EAGAIN without touching I/O-thread state.
    std::atomic<std::size_t> staged{0};
  };

  struct PendingConn {  ///< accepted, HELLO not yet seen (thread 0 only).
    int fd = -1;
    net::FrameDecoder decoder;
    TimeNs accepted_ns = 0;     ///< for the handshake deadline reap.
    std::size_t fed_bytes = 0;  ///< pre-HELLO bytes buffered (bounded).
  };

  struct UserTimer {
    TimeNs due_ns{0};
    std::uint64_t seq{0};  ///< FIFO tiebreak for equal deadlines.
    NodeId node{kInvalidNode};  ///< kInvalidNode = internal I/O-thread callback.
    std::function<void()> fn;
    bool operator>(const UserTimer& o) const {
      return due_ns != o.due_ns ? due_ns > o.due_ns : seq > o.seq;
    }
  };

  /// A greeted connection handed from thread 0 to the peer's home thread.
  struct Handoff {
    std::size_t peer = 0;
    int fd = -1;
    net::FrameDecoder decoder;  ///< bytes buffered past the HELLO carry over.
  };

  // --- one epoll I/O thread ---------------------------------------------------
  struct IoThread {
    std::size_t id = 0;
    int epoll_fd = -1;
    int wake_fd = -1;
    int timer_fd = -1;
    std::thread thread;

    /// Timer min-heap by (due, seq).  Thread 0's heap carries post_after
    /// timers; every heap carries its own links' internal (reconnect/drop)
    /// callbacks.  Locked: senders and workers push from outside.
    std::mutex timer_mu;
    std::vector<UserTimer> timers;
    std::uint64_t timer_seq = 0;  ///< FIFO tiebreak within this heap.
    TimeNs armed_due = 0;  ///< timerfd's current deadline (0 = disarmed).

    /// Connections greeted on thread 0, waiting for this thread to adopt.
    std::mutex handoff_mu;
    std::vector<Handoff> handoffs;

    /// Wakeup elision handshake: a sender marks `pending` after queueing and
    /// writes the eventfd only if this thread is `armed` (about to block in
    /// epoll_wait).  The loop re-checks `pending` after arming, so the
    /// queue-without-wake window can never stall a frame; seq_cst on all
    /// four accesses makes the flag dance airtight.  Under load this elides
    /// one eventfd write per send.
    std::atomic<bool> armed{false};
    std::atomic<bool> pending{false};

    std::atomic<bool> kick_connects{false};  ///< broadcast_shutdown redial request.
    std::atomic<std::uint64_t> wakeups{0};   ///< epoll_wait returns with >= 1 event.
    bool inbound_paused_applied = false;     ///< this thread's view of the global pause.

    std::vector<std::size_t> links;       ///< peer indexes homed here.
    std::vector<std::uint8_t> rbuf;       ///< batch-read buffer (read_chunk_bytes).
    std::vector<net::IoSlice> slices;     ///< gather scratch (coalesce_max_frames).
    /// Read-side delivery buckets: decoded items per node, flushed as one
    /// mailbox burst per epoll iteration.
    std::vector<std::vector<Mailbox::Item>> ready;
    std::vector<NodeId> touched;          ///< nodes with non-empty buckets.
  };

  std::size_t home_index(std::size_t peer) const {
    return peer % opts_.transport.io_threads;
  }
  IoThread& home(std::size_t peer) { return *io_threads_[home_index(peer)]; }

  void worker(NodeId id);
  void enqueue_local(NodeId to, Mailbox::Item item);
  void request_link_drop(std::size_t peer, std::uint32_t gen);
  void push_timer(IoThread& io, UserTimer t);
  void io_loop(IoThread& io);
  void io_wake(IoThread& io);
  void io_wake_all();
  void io_update_events(std::size_t peer);
  void io_apply_inbound_flow_control(IoThread& io);
  void io_start_connect(std::size_t peer);
  void io_schedule_reconnect(std::size_t peer);
  void io_link_failed(std::size_t peer, const std::string& why);
  void io_on_connect_ready(std::size_t peer);
  void io_flush(std::size_t peer);
  void io_read(IoThread& io, std::size_t peer);
  bool io_handle_frame(IoThread& io, std::size_t peer, net::Frame& f);
  void io_deliver_ready(IoThread& io);
  void io_adopt_handoffs(IoThread& io);
  void io_accept_all(IoThread& io);
  void io_reap_stale_pending(IoThread& io);
  void io_read_pending(IoThread& io, std::size_t slot);
  void io_fire_timers(IoThread& io);
  void io_rearm_timerfd(IoThread& io);
  void close_link(std::size_t peer);
  void note_connected(std::size_t peer);
  void io_peer_down_check(std::size_t peer);

  NetOptions opts_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;  ///< index-aligned; null for remote nodes.
  std::vector<std::thread> workers_;
  std::vector<std::unique_ptr<PeerLink>> links_;  ///< index-aligned with peers.
  std::vector<PendingConn> pending_;              ///< thread 0 only.
  std::vector<std::unique_ptr<IoThread>> io_threads_;

  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> shutdown_{false};
  bool started_ = false;

  /// Inbound flow control: bytes enqueued from the network and not yet
  /// delivered.  Above the budget every I/O thread unsubscribes its sockets
  /// from EPOLLIN; workers refund charges and wake them to resume below half
  /// the budget.
  std::atomic<std::size_t> inbound_bytes_{0};
  std::atomic<bool> inbound_paused_{false};

  /// inject_read_stall deadline: while now < stall_until, every I/O thread
  /// treats its links as inbound-paused (OR-ed with the budget pause, so the
  /// budget state machine is untouched).  0 = no stall.
  std::atomic<TimeNs> stall_until_ns_{0};

  /// watch_node registrations (watcher, watched); appended from worker
  /// threads at on_start, read by I/O threads when a grace timer fires.
  std::mutex watch_mu_;
  std::vector<std::pair<NodeId, NodeId>> watches_;

  std::mutex conn_mu_;
  std::condition_variable conn_cv_;  ///< wait_connected / run_until_shutdown.
  std::size_t initiated_up_ = 0;     ///< initiator links currently kUp.
  std::size_t initiated_total_ = 0;

  struct AtomicStats {
    std::atomic<std::uint64_t> frames_sent{0};
    std::atomic<std::uint64_t> frames_received{0};
    std::atomic<std::uint64_t> bytes_sent{0};
    std::atomic<std::uint64_t> bytes_received{0};
    std::atomic<std::uint64_t> send_syscalls{0};
    std::atomic<std::uint64_t> frames_written{0};
    std::atomic<std::uint64_t> short_writes{0};
    std::atomic<std::uint64_t> recv_syscalls{0};
    std::atomic<std::uint64_t> mailbox_bursts{0};
    std::atomic<std::uint64_t> reconnects{0};
    std::atomic<std::uint64_t> backpressure_waits{0};
    std::atomic<std::uint64_t> inbound_pauses{0};
    std::atomic<std::uint64_t> churn_drops{0};   ///< inject_link_drop calls that found a live link.
    std::atomic<std::uint64_t> churn_stalls{0};  ///< inject_read_stall calls.
  };
  AtomicStats stats_;

 protected:
  void on_node_added(NodeId id) override;
};

}  // namespace snowkit

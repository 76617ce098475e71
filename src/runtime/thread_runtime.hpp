// ThreadRuntime: one OS thread per node, mailbox message passing.
//
// This is the "real concurrency" substrate: every message is serialized
// through the wire codec (msg/codec) and crosses a mutex-protected queue, so
// protocol state machines experience genuine asynchrony, reordering across
// senders, and memory-visibility effects — the in-process stand-in for the
// gRPC deployment suggested by the reproduction notes.
//
// Delivery guarantees match the paper's model: reliable, unbounded delay
// (scheduling), FIFO per (sender, receiver) pair.
//
// A worker drains its WHOLE mailbox under one lock acquisition (deque
// swap) and delivers the burst outside the critical section, and senders
// encode into recycled byte buffers (thread-local scratch swapped against a
// per-mailbox pool), so steady-state delivery costs one lock round-trip per
// BURST and zero allocations per message.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <thread>

#include "runtime/mailbox.hpp"
#include "runtime/runtime.hpp"

namespace snowkit {

class ThreadRuntime final : public Runtime {
 public:
  /// Messages delivered vs. worker wakeups: messages / wakeups is the mean
  /// burst size a node handles per lock round-trip.
  struct DeliveryStats {
    std::uint64_t messages{0};
    std::uint64_t wakeups{0};
  };

  ThreadRuntime() = default;
  ~ThreadRuntime() override;

  /// Spawns one thread per registered node and calls on_start on each.
  /// No nodes may be added after start().
  void start();

  /// Drains mailboxes until all are empty and all nodes idle, then joins.
  void stop();

  void send(NodeId from, NodeId to, Message m) override;
  void post(NodeId node, std::function<void()> fn) override;
  /// Delivered by a dedicated timer thread; timers still pending at stop(),
  /// or posted while it drains, are discarded.
  void post_after(NodeId node, TimeNs delay_ns, std::function<void()> fn) override;
  TimeNs now_ns() const override;

  /// Blocks until every mailbox is empty and every node is idle.  Only valid
  /// when no external driver keeps injecting work.
  void wait_idle();

  DeliveryStats delivery_stats() const;

 private:
  /// The mailbox struct (and its pooling bounds) is shared with NetRuntime —
  /// see runtime/mailbox.hpp.
  using Mailbox = NodeMailbox;

  void worker(NodeId id);
  void enqueue(NodeId to, Mailbox::Item item);
  void deliver(NodeId id, Mailbox::Item& item);
  void notify_idle();
  void timer_worker();
  void stop_timer_thread();

  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<std::thread> threads_;
  bool started_ = false;

  std::atomic<std::uint64_t> delivered_messages_{0};
  std::atomic<std::uint64_t> wakeups_{0};

  struct Timer {
    std::chrono::steady_clock::time_point due;
    NodeId node{kInvalidNode};
    std::function<void()> fn;
  };
  std::mutex timer_mu_;
  std::condition_variable timer_cv_;
  std::multimap<std::chrono::steady_clock::time_point, Timer> timers_;
  std::thread timer_thread_;
  bool timer_stop_ = false;

  std::mutex idle_mu_;
  std::condition_variable idle_cv_;

 protected:
  void on_node_added(NodeId id) override;
};

}  // namespace snowkit

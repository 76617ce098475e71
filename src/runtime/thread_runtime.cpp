#include "runtime/thread_runtime.hpp"

#include <chrono>

#include "common/assert.hpp"
#include "msg/codec.hpp"

namespace snowkit {

ThreadRuntime::~ThreadRuntime() {
  if (started_) {
    stop();
  } else {
    stop_timer_thread();
  }
}

void ThreadRuntime::on_node_added(NodeId id) {
  SNOW_CHECK_MSG(!started_, "cannot add nodes after start()");
  (void)id;
  mailboxes_.push_back(std::make_unique<Mailbox>());
}

void ThreadRuntime::start() {
  SNOW_CHECK(!started_);
  started_ = true;
  for (NodeId id = 0; id < node_count(); ++id) start_node(id);
  threads_.reserve(node_count());
  for (NodeId id = 0; id < node_count(); ++id) {
    threads_.emplace_back([this, id] { worker(id); });
  }
}

void ThreadRuntime::stop() {
  if (!started_) return;
  stop_timer_thread();
  wait_idle();
  for (auto& mb : mailboxes_) {
    std::lock_guard<std::mutex> lock(mb->mu);
    mb->stop = true;
    mb->cv.notify_all();
  }
  for (auto& t : threads_) t.join();
  threads_.clear();
  started_ = false;
}

void ThreadRuntime::send(NodeId from, NodeId to, Message m) {
  SNOW_CHECK_MSG(to < node_count(), "send to unknown node " << to);
  // Encode into this thread's scratch buffer (capacity persists
  // across sends), then swap it against a recycled buffer from the target
  // mailbox's pool under the single enqueue lock.  Once capacities warm up,
  // a send performs zero heap allocations.
  thread_local std::vector<std::uint8_t> scratch;
  encode_message_into(m, scratch);
  if (observer() != nullptr) observer()->on_send(from, to, m, scratch.size());
  Mailbox& mb = *mailboxes_[to];
  {
    std::lock_guard<std::mutex> lock(mb.mu);
    Mailbox::Item item;
    item.from = from;
    if (!mb.pool.empty()) {
      item.bytes = std::move(mb.pool.back());
      mb.pool.pop_back();
    }
    item.bytes.swap(scratch);  // item gets the encoded bytes, scratch the recycled capacity
    mb.queue.push_back(std::move(item));
  }
  mb.cv.notify_one();
}

void ThreadRuntime::post(NodeId node, std::function<void()> fn) {
  SNOW_CHECK_MSG(node < node_count(), "post to unknown node " << node);
  enqueue(node, Mailbox::Item{kInvalidNode, {}, std::move(fn)});
}

void ThreadRuntime::post_after(NodeId node, TimeNs delay_ns, std::function<void()> fn) {
  SNOW_CHECK_MSG(node < node_count(), "post_after to unknown node " << node);
  const auto due = std::chrono::steady_clock::now() + std::chrono::nanoseconds(delay_ns);
  {
    std::lock_guard<std::mutex> lock(timer_mu_);
    // Once stop() has begun, a timer is discarded like one pending at
    // stop(): work that stop() drains may still arm one (a READ completing
    // arms its read-done linger).
    if (timer_stop_) return;
    timers_.emplace(due, Timer{due, node, std::move(fn)});
    if (!timer_thread_.joinable()) {
      timer_thread_ = std::thread([this] { timer_worker(); });
    }
  }
  timer_cv_.notify_one();
}

void ThreadRuntime::timer_worker() {
  std::unique_lock<std::mutex> lock(timer_mu_);
  while (!timer_stop_) {
    if (timers_.empty()) {
      timer_cv_.wait(lock, [&] { return timer_stop_ || !timers_.empty(); });
      continue;
    }
    const auto due = timers_.begin()->first;
    if (timer_cv_.wait_until(lock, due, [&] {
          return timer_stop_ || (!timers_.empty() && timers_.begin()->first < due);
        })) {
      continue;  // stopped, or an earlier timer arrived — re-evaluate
    }
    // `due` has passed: fire every expired timer.
    while (!timers_.empty() && timers_.begin()->first <= std::chrono::steady_clock::now()) {
      Timer t = std::move(timers_.begin()->second);
      timers_.erase(timers_.begin());
      lock.unlock();
      post(t.node, std::move(t.fn));
      lock.lock();
    }
  }
}

void ThreadRuntime::stop_timer_thread() {
  {
    std::lock_guard<std::mutex> lock(timer_mu_);
    timer_stop_ = true;
  }
  timer_cv_.notify_all();
  if (timer_thread_.joinable()) timer_thread_.join();
}

TimeNs ThreadRuntime::now_ns() const {
  return static_cast<TimeNs>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

ThreadRuntime::DeliveryStats ThreadRuntime::delivery_stats() const {
  DeliveryStats s;
  s.messages = delivered_messages_.load(std::memory_order_relaxed);
  s.wakeups = wakeups_.load(std::memory_order_relaxed);
  return s;
}

void ThreadRuntime::enqueue(NodeId to, Mailbox::Item item) {
  Mailbox& mb = *mailboxes_[to];
  {
    std::lock_guard<std::mutex> lock(mb.mu);
    mb.queue.push_back(std::move(item));
  }
  mb.cv.notify_one();
}

void ThreadRuntime::deliver(NodeId id, Mailbox::Item& item) {
  if (item.task) {
    item.task();
  } else {
    Message m = decode_message(item.bytes);
    if (observer() != nullptr) observer()->on_deliver(item.from, id, m);
    deliver_to(item.from, id, m);
    delivered_messages_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ThreadRuntime::notify_idle() {
  {
    // Locking idle_mu_ orders this notify after any concurrent predicate
    // check in wait_idle, so the waiter cannot miss the transition to idle.
    std::lock_guard<std::mutex> lock(idle_mu_);
  }
  idle_cv_.notify_all();
}

void ThreadRuntime::worker(NodeId id) {
  Mailbox& mb = *mailboxes_[id];
  std::deque<Mailbox::Item> batch;       // capacity ping-pongs with mb.queue
  std::vector<std::vector<std::uint8_t>> drained;  // buffers to recycle
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mb.mu);
      mb.cv.wait(lock, [&] { return mb.stop || !mb.queue.empty(); });
      if (mb.queue.empty()) return;  // stop requested and drained
      batch.swap(mb.queue);          // O(1): take the whole burst
      mb.busy = true;
    }
    wakeups_.fetch_add(1, std::memory_order_relaxed);
    // Deliver the entire burst outside the critical section.  FIFO per
    // (sender, receiver) is preserved: the burst is processed in enqueue
    // order and `busy` keeps this node's handlers serialized.
    for (Mailbox::Item& item : batch) {
      deliver(id, item);
      if (!item.bytes.empty()) drained.push_back(std::move(item.bytes));
    }
    batch.clear();
    {
      std::lock_guard<std::mutex> lock(mb.mu);
      mb.busy = false;
      while (!drained.empty() && mb.pool.size() < kMaxPooledBuffers) {
        if (drained.back().capacity() <= kMaxPooledCapacity) {
          mb.pool.push_back(std::move(drained.back()));
        }
        drained.pop_back();
      }
    }
    drained.clear();
    notify_idle();
  }
}

void ThreadRuntime::wait_idle() {
  std::unique_lock<std::mutex> lock(idle_mu_);
  idle_cv_.wait(lock, [&] {
    for (auto& mb : mailboxes_) {
      std::lock_guard<std::mutex> l(mb->mu);
      if (!mb->queue.empty() || mb->busy) return false;
    }
    return true;
  });
}

}  // namespace snowkit

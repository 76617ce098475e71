// Regression tests for batched delivery: draining many messages per wakeup
// must preserve FIFO order per (sender, receiver) pair — the delivery
// guarantee the paper's channel model specifies and that snow_monitor and
// the tag-order checker rely on when attributing rounds to transactions.
// Covered on BOTH runtimes that batch: ThreadRuntime, whose workers drain a
// whole mailbox per wakeup, and NetRuntime, where write-side coalescing
// packs many frames per sendmsg and read-side batch decode delivers mailbox
// bursts — neither may reorder one sender's stream.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <vector>

#include "core/run_workload.hpp"
#include "core/system.hpp"
#include "checker/tag_order.hpp"
#include "runtime/net_runtime.hpp"
#include "runtime/thread_runtime.hpp"

namespace snowkit {
namespace {

/// Records the sequence numbers (Message::txn) observed per sender.  All
/// callbacks run on this node's executor, so no locking is needed.
class OrderRecorder final : public Node {
 public:
  void on_message(NodeId from, const Message& m) override {
    observed_[from].push_back(m.txn);
  }

  const std::map<NodeId, std::vector<TxnId>>& observed() const { return observed_; }

 private:
  std::map<NodeId, std::vector<TxnId>> observed_;
};

class Blaster final : public Node {
 public:
  void on_message(NodeId, const Message&) override {}
};

TEST(FifoOrder, BatchDrainPreservesPerSenderFifo) {
  constexpr std::size_t kSenders = 4;
  constexpr std::size_t kReceivers = 2;
  constexpr std::size_t kPerSenderPerReceiver = 2000;

  ThreadRuntime rt;
  std::vector<NodeId> receivers, senders;
  std::vector<OrderRecorder*> recorders;
  for (std::size_t i = 0; i < kReceivers; ++i) {
    auto node = std::make_unique<OrderRecorder>();
    recorders.push_back(node.get());
    receivers.push_back(rt.add_node(std::move(node)));
  }
  for (std::size_t i = 0; i < kSenders; ++i) {
    senders.push_back(rt.add_node(std::make_unique<Blaster>()));
  }
  rt.start();
  for (std::size_t s = 0; s < kSenders; ++s) {
    const NodeId self = senders[s];
    rt.post(self, [&rt, &receivers, self] {
      // Interleave receivers so batches at each receiver span many senders.
      for (std::size_t seq = 0; seq < kPerSenderPerReceiver; ++seq) {
        for (NodeId to : receivers) {
          rt.send(self, to, Message{seq, SimpleWriteReq{0, static_cast<Value>(seq)}});
        }
      }
    });
  }
  rt.wait_idle();
  rt.stop();

  // The flood must actually have been batch-drained: more messages than
  // worker wakeups, i.e. a mean burst above one.  A worker that took one
  // message per lock round-trip fails here (the NetRuntime leg below makes
  // the same check with frames_received > mailbox_bursts).
  const ThreadRuntime::DeliveryStats stats = rt.delivery_stats();
  EXPECT_EQ(stats.messages, kSenders * kReceivers * kPerSenderPerReceiver);
  EXPECT_GT(stats.messages, stats.wakeups);

  for (std::size_t r = 0; r < kReceivers; ++r) {
    const auto& observed = recorders[r]->observed();
    ASSERT_EQ(observed.size(), kSenders) << "receiver " << r << " missed a sender entirely";
    for (const auto& [from, seqs] : observed) {
      ASSERT_EQ(seqs.size(), kPerSenderPerReceiver)
          << "receiver " << r << " lost messages from sender " << from;
      for (std::size_t i = 0; i < seqs.size(); ++i) {
        ASSERT_EQ(seqs[i], i) << "per-sender FIFO violated at receiver " << r << " from sender "
                              << from << " position " << i;
      }
    }
  }
}

// End-to-end guard for the same property: the Lemma-20 tag order that
// snow_monitor-style checking depends on still holds when a protocol runs on
// the batch-draining runtime (delivery reordering across senders is allowed,
// reordering within a sender is not — a FIFO bug shows up as an S violation).
TEST(FifoOrder, TagOrderHoldsUnderBatchedDelivery) {
  ThreadRuntime rt;
  HistoryRecorder rec(3);
  auto sys = build_protocol("algo-b", rt, rec, SystemConfig{3, 2, 2});
  rt.start();
  WorkloadSpec spec;
  spec.ops_per_reader = 150;
  spec.ops_per_writer = 75;
  spec.read_span = 2;
  WorkloadDriver driver(rt, *sys, spec);
  driver.start();
  driver.wait();
  rt.stop();
  auto verdict = check_tag_order(rec.snapshot());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

// --- the same property over real TCP -----------------------------------------

constexpr std::size_t kNetSenders = 2;
constexpr std::size_t kNetReceivers = 2;
constexpr std::size_t kNetPerPair = 1500;

/// OrderRecorder plus a shared delivery counter so the test can wait for the
/// flood to land (NetRuntime has no cross-process wait_idle).
class NetOrderRecorder final : public Node {
 public:
  NetOrderRecorder(std::mutex& mu, std::condition_variable& cv, std::size_t& delivered)
      : mu_(mu), cv_(cv), delivered_(delivered) {}

  void on_message(NodeId from, const Message& m) override {
    observed_[from].push_back(m.txn);
    std::lock_guard<std::mutex> lock(mu_);
    if (++delivered_ == kNetSenders * kNetReceivers * kNetPerPair) cv_.notify_all();
  }

  const std::map<NodeId, std::vector<TxnId>>& observed() const { return observed_; }

 private:
  std::mutex& mu_;
  std::condition_variable& cv_;
  std::size_t& delivered_;
  std::map<NodeId, std::vector<TxnId>> observed_;
};

/// Floods kNetSenders × kNetReceivers × kNetPerPair messages from a sender
/// process to a receiver process over one loopback fleet and checks every
/// per-sender stream arrived strictly in order.  Throws on listen/connect
/// failure so the caller can retry on fresh ports.
void run_net_fifo_flood_once(const std::vector<std::uint16_t>& ports,
                             std::vector<std::map<NodeId, std::vector<TxnId>>>& results,
                             TransportStats& sender) {
  std::vector<NetOrderRecorder*> recorders;
  std::mutex mu;
  std::condition_variable cv;
  std::size_t delivered = 0;

  auto make_opts = [&](std::size_t index) {
    NetOptions opts;
    opts.index = index;
    opts.peers = {{"127.0.0.1", ports[0]}, {"127.0.0.1", ports[1]}};
    opts.owner = [](NodeId node) -> std::size_t { return node < kNetReceivers ? 0 : 1; };
    // Two io threads + default coalescing: the exact configuration the
    // saturation benchmark gates, so a FIFO bug in the batched paths cannot
    // hide behind the single-thread layout.
    opts.transport.io_threads = 2;
    return opts;
  };
  NetRuntime rt_recv(make_opts(0));
  NetRuntime rt_send(make_opts(1));

  std::vector<NodeId> receivers, senders;
  for (NetRuntime* rt : {&rt_recv, &rt_send}) {  // identical numbering on both
    std::vector<NodeId> r, s;
    for (std::size_t i = 0; i < kNetReceivers; ++i) {
      auto node = std::make_unique<NetOrderRecorder>(mu, cv, delivered);
      if (rt == &rt_recv) recorders.push_back(node.get());
      r.push_back(rt->add_node(std::move(node)));
    }
    for (std::size_t i = 0; i < kNetSenders; ++i) {
      s.push_back(rt->add_node(std::make_unique<Blaster>()));
    }
    receivers = std::move(r);
    senders = std::move(s);
  }

  rt_recv.start();
  rt_send.start();
  rt_send.wait_connected();

  for (const NodeId self : senders) {
    rt_send.post(self, [&rt_send, &receivers, self] {
      // Interleave receivers so coalesced writev batches and mailbox bursts
      // at each receiver span many senders.
      for (std::size_t seq = 0; seq < kNetPerPair; ++seq) {
        for (NodeId to : receivers) {
          rt_send.send(self, to, Message{seq, SimpleWriteReq{0, static_cast<Value>(seq)}});
        }
      }
    });
  }

  {
    std::unique_lock<std::mutex> lock(mu);
    const bool done = cv.wait_for(lock, std::chrono::seconds(60), [&] {
      return delivered == kNetSenders * kNetReceivers * kNetPerPair;
    });
    ASSERT_TRUE(done) << "flood stalled: " << delivered << " of "
                      << kNetSenders * kNetReceivers * kNetPerPair << " delivered";
  }

  sender = rt_send.transport_stats();
  const TransportStats recv = rt_recv.transport_stats();
  rt_send.stop();
  rt_recv.stop();

  // The flood must actually have exercised the batched paths: many frames
  // per sendmsg on the sender, many frames per mailbox burst on the
  // receiver.  A regression to frame-at-a-time I/O fails here, not just in
  // the benchmark.
  EXPECT_GT(sender.frames_per_syscall(), 1.0);
  EXPECT_GT(recv.frames_received, recv.mailbox_bursts);

  // Copy the observations out: the nodes (and their maps) die with the
  // runtimes at end of scope.
  for (const NetOrderRecorder* rec : recorders) results.push_back(rec->observed());
}

TEST(FifoOrder, NetRuntimeCoalescingAndBatchDecodePreserveFifo) {
  if (!net::transport_supported()) GTEST_SKIP() << "TCP transport requires Linux";
  std::vector<std::map<NodeId, std::vector<TxnId>>> results;
  TransportStats sender;
  try {
    run_net_fifo_flood_once(net::pick_free_ports(2), results, sender);
  } catch (const std::runtime_error&) {
    // Another process can grab a probed port between pick and listen.
    results.clear();
    run_net_fifo_flood_once(net::pick_free_ports(2), results, sender);
  }
  if (HasFatalFailure()) return;

  ASSERT_EQ(results.size(), kNetReceivers);
  for (std::size_t r = 0; r < results.size(); ++r) {
    const auto& observed = results[r];
    ASSERT_EQ(observed.size(), kNetSenders) << "receiver " << r << " missed a sender";
    for (const auto& [from, seqs] : observed) {
      ASSERT_EQ(seqs.size(), kNetPerPair)
          << "receiver " << r << " lost messages from sender " << from;
      for (std::size_t i = 0; i < seqs.size(); ++i) {
        ASSERT_EQ(seqs[i], i) << "per-sender FIFO violated over TCP at receiver " << r
                              << " from sender " << from << " position " << i;
      }
    }
  }
}

}  // namespace
}  // namespace snowkit

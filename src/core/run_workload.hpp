// Workload driver + history-derived run statistics.
//
// WorkloadDriver pushes a WorkloadSpec through a ProtocolSystem's unified
// TxnClient API on any runtime.  DriverOptions::mode picks one of three
// arrival disciplines:
//
//  * kClosedLoop (default): reader i chains ops_per_reader READs, writer j
//    chains ops_per_writer WRITEs — every client always has exactly one
//    transaction in flight (the paper's well-formedness condition);
//  * kMixedClosedLoop: each unified client chains ops_per_client operations,
//    choosing READ vs WRITE per op with probability read_fraction;
//  * kOpenLoop: total_ops arrivals paced by runtime timers (virtual time on
//    SimRuntime, wall clock on ThreadRuntime/NetRuntime).  Arrivals beyond a
//    busy protocol client queue inside TxnClient — genuine open-loop backlog.
//
// Both closed loops run one chain per client: each operation is submitted
// from its predecessor's completion.
//
// Open loop has one pacer: `arrival_shards` independent timer chains, each
// anchored on its own locally-owned node and submitting round-robin on its
// own slice of the protocol client slots.  A chain tracks ABSOLUTE
// deadlines: arrival k is due at start + k * interval, the timer callback
// issues every overdue arrival (catch-up) and re-arms for the next deadline.
// Posting the next timer relative to "after the previous callback ran"
// silently stretched the period by the callback latency, so the delivered
// rate under-shot the nominal rate and the sojourn histogram suffered
// coordinated omission.  Sojourn is measured from the INTENDED deadline, so
// a late arrival's queueing delay is charged to the system, not hidden.
//
// Where arrivals come from:
//
//  * with DriverOptions::traffic, each shard draws from its own TrafficShard
//    (workload/workload.hpp): popularity, span distributions, a rate curve
//    and a slice of ~10^6 logical clients (a logical client is a stream
//    identity, never a thread).  Shard s paces at interval * S with a phase
//    offset of s * interval, so the aggregate process keeps the nominal
//    spacing;
//  * without one, the pacer runs exactly one shard, anchored on the first
//    locally-owned node.  READ vs WRITE comes from one driver-wide coin
//    (probability read_fraction), objects from the chosen client's OpStream,
//    and clients take turns round-robin, one arrival every
//    arrival_interval_ns.
//
// With SimRuntime, call start() and then sim.run_until_idle(); with
// ThreadRuntime, call start() then wait().
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>

#include "core/system.hpp"
#include "metrics/histogram.hpp"
#include "workload/workload.hpp"

namespace snowkit {

enum class ArrivalMode {
  kClosedLoop,       ///< reader and writer chains; next op issued from the last completion.
  kMixedClosedLoop,  ///< one chain per unified client, READ vs WRITE by read_fraction.
  kOpenLoop,         ///< ops issued at a paced rate regardless of completions.
};

struct DriverOptions {
  ArrivalMode mode{ArrivalMode::kClosedLoop};

  /// Mixed closed loop: ops per unified client.
  std::size_t ops_per_client{0};

  /// Open loop: total operations across all clients.
  std::size_t total_ops{0};
  /// Open loop: fixed inter-arrival gap (sim ns / wall ns).  With a
  /// TrafficModel this is the fallback when its rate curve is empty.
  TimeNs arrival_interval_ns{100'000};

  /// Mixed closed loop and open loop without a TrafficModel: probability an
  /// op is a READ transaction.
  double read_fraction{0.9};

  /// Open loop: generate arrivals from this TrafficModel (popularity,
  /// permuted ranks, span distributions, rate curve, logical clients)
  /// instead of the per-client OpStreams.
  std::optional<TrafficModel> traffic;
  /// Open loop: independent pacing shards (each an absolute-deadline timer
  /// chain on its own locally-owned anchor node).  More than one needs a
  /// TrafficModel to draw from.
  std::size_t arrival_shards{1};

  /// Test/diagnostic seam: runs synchronously on the arrival timer chain
  /// as each arrival is issued, just before it is submitted — a
  /// deliberately slow hook models a slow completion path without touching
  /// protocol code (the pacing regression test injects a sleep here).
  /// Default: none.
  std::function<void()> after_arrival;

  /// First write value this driver hands out.  The checkers identify writers
  /// by value, so two drivers run SEQUENTIALLY against one system (e.g. a
  /// steady-state warmup phase before the measured phase) must carve out
  /// disjoint value ranges.
  std::uint64_t value_base{1};
};

class WorkloadDriver {
 public:
  WorkloadDriver(Runtime& rt, ProtocolSystem& sys, WorkloadSpec spec, DriverOptions opts = {});
  /// Waits out the last completion's notify, so a driver may go as soon as
  /// done() is true: an open-loop shard's last tick touches nothing after
  /// submitting its last arrival.
  ~WorkloadDriver();

  /// Posts the first operation of every chain (closed loops) or schedules
  /// each shard's first arrival (open loop).
  void start();

  /// True once every submitted operation completed (safe from any thread).
  bool done() const;

  /// Blocks until done (for ThreadRuntime; do not use with SimRuntime).
  void wait();

  std::size_t total_ops() const { return total_ops_; }
  std::size_t completed_reads() const { return reads_done_.load(std::memory_order_acquire); }
  std::size_t completed_writes() const { return writes_done_.load(std::memory_order_acquire); }

  /// Open loop: churn support.  pause() stops issuing new arrivals (the
  /// timer chains idle-poll; deadlines keep accruing, so the post-resume
  /// catch-up burst charges the outage to sojourn honestly); resume()
  /// re-opens the tap.  in_flight() is arrivals issued minus completions —
  /// a churn controller drains it to zero before dropping a link so no
  /// acknowledged transaction is ever cut mid-wire.
  void pause() { paused_.store(true, std::memory_order_release); }
  void resume() { paused_.store(false, std::memory_order_release); }
  std::size_t in_flight() const;

  /// Open loop: arrivals actually issued so far, and the delivered arrival
  /// rate over the issuing window (ops/s; wall clock on threaded runtimes,
  /// virtual on SimRuntime).  The coordinated-omission scoreboard: a healthy
  /// paced run reports within a few percent of the nominal rate.
  std::size_t arrivals_issued() const {
    return arrivals_issued_.load(std::memory_order_acquire);
  }
  double achieved_arrival_rate() const;

  /// Client-perceived latency: arrival (intended deadline) to completion,
  /// INCLUDING any open-loop backlog queueing inside TxnClient.  History
  /// latencies measure only protocol invocation to response, so under
  /// overload this is the honest number.  Recorded for open-loop runs only
  /// (closed loops have no backlog and skip the bookkeeping); empty
  /// otherwise.
  LatencySummary sojourn_latency() const;

 private:
  /// One open-loop pacing chain.  Its state is touched only on its anchor's
  /// executor, so it needs no locking.
  struct ArrivalShard {
    NodeId anchor{0};          ///< locally-owned node whose executor paces this shard.
    TimeNs next_deadline{0};   ///< absolute due time of the next arrival.
    std::size_t arrivals_left{0};
    std::size_t next_client{0};  ///< round-robin cursor within [client_lo, client_hi).
    std::size_t client_lo{0};
    std::size_t client_hi{0};    ///< protocol client slots this shard submits on.
    /// The arrival source; null for the one shard that draws from coin_ and
    /// the per-client OpStreams.
    std::unique_ptr<TrafficShard> traffic;
  };

  /// Submits the next op of `client`'s closed-loop chain, drawing its objects
  /// from `stream`; `kind` fixes READ or WRITE, or is empty to toss the
  /// client's coin.
  void issue_chain(std::size_t client, OpStream& stream, std::optional<bool> kind,
                   std::size_t remaining);
  void schedule(std::size_t shard);
  void tick(std::size_t shard);
  TrafficArrival next_arrival(ArrivalShard& sh, std::size_t client);
  TimeNs next_interval(ArrivalShard& sh, TimeNs elapsed);
  /// The request for (`is_read`, `objs`); a WRITE gets fresh values.
  TxnRequest make_request(bool is_read, std::vector<ObjectId> objs);
  void record_sojourn(TimeNs deadline);
  void note_arrival_issued();
  void op_finished(bool was_read);

  Runtime& rt_;
  ProtocolSystem& sys_;
  WorkloadSpec spec_;
  DriverOptions opts_;
  /// Closed loop: the readers' streams, then the writers'.  Mixed closed
  /// loop and open loop without a TrafficModel: one per unified client.
  std::vector<OpStream> streams_;
  /// READ/WRITE choice.  Open loop uses coin_ (its one shard's chain is
  /// single-threaded); mixed closed loop uses one coin per client, since
  /// chains advance on their own node executors concurrently under
  /// ThreadRuntime.
  Xoshiro256 coin_;
  std::vector<Xoshiro256> client_coins_;
  std::size_t total_ops_{0};
  std::vector<ArrivalShard> shards_;  ///< open loop only.
  std::atomic<bool> paused_{false};
  std::atomic<std::size_t> arrivals_issued_{0};
  TimeNs start_ns_{0};                      ///< set once in start().
  std::atomic<TimeNs> last_arrival_ns_{0};  ///< max issuance time across shards.
  std::atomic<std::size_t> remaining_ops_{0};
  std::atomic<std::size_t> reads_done_{0};
  std::atomic<std::size_t> writes_done_{0};
  std::atomic<std::uint64_t> next_value_{1};
  mutable std::mutex sojourn_mu_;
  Histogram sojourn_;
  std::mutex mu_;
  std::condition_variable cv_;
};

/// Latency summary over the completed READ (or WRITE) transactions of a
/// history, using recorded invoke/respond timestamps.
LatencySummary summarize_latency(const History& h, bool reads);

/// Max client-reported rounds over completed READs.
int max_read_rounds(const History& h);

/// Max versions in any single server response over completed READs.
int max_read_versions(const History& h);

}  // namespace snowkit

#include "core/run_workload.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/assert.hpp"

namespace snowkit {

namespace {

void validate_span(const char* what, std::size_t span, std::size_t num_objects) {
  if (span == 0) {
    throw std::invalid_argument(std::string("WorkloadSpec: ") + what + " must be >= 1");
  }
  if (span > num_objects) {
    throw std::invalid_argument(std::string("WorkloadSpec: ") + what + " (" +
                                std::to_string(span) + ") exceeds num_objects (" +
                                std::to_string(num_objects) + ")");
  }
}

/// While paused, the timer chains idle-poll at this cadence (capped so a
/// slow nominal rate cannot make resume() sluggish).
TimeNs pause_poll_ns(TimeNs interval) { return std::min<TimeNs>(interval, 1'000'000); }

}  // namespace

WorkloadDriver::WorkloadDriver(Runtime& rt, ProtocolSystem& sys, WorkloadSpec spec,
                               DriverOptions opts)
    : rt_(rt), sys_(sys), spec_(spec), opts_(std::move(opts)), coin_(spec.seed ^ 0xC0FFEEull) {
  next_value_.store(opts_.value_base, std::memory_order_relaxed);
  const std::size_t k = sys_.num_objects();
  const bool open_loop = opts_.mode == ArrivalMode::kOpenLoop;
  if (opts_.traffic && !open_loop) {
    throw std::invalid_argument(
        "DriverOptions: the traffic engine requires ArrivalMode::kOpenLoop");
  }
  if (opts_.arrival_shards == 0) {
    throw std::invalid_argument("DriverOptions: arrival_shards must be >= 1");
  }
  if (opts_.arrival_shards > 1 && !opts_.traffic) {
    throw std::invalid_argument("DriverOptions: arrival_shards > 1 needs a TrafficModel to "
                                "draw from");
  }
  double read_fraction = opts_.read_fraction;
  if (opts_.traffic) {
    opts_.traffic->validate(k);
    read_fraction = opts_.traffic->read_fraction;
  } else {
    const bool split = opts_.mode == ArrivalMode::kClosedLoop;
    if (!split || (sys_.num_readers() > 0 && spec_.ops_per_reader > 0)) {
      validate_span("read_span", spec_.read_span, k);
    }
    if (!split || (sys_.num_writers() > 0 && spec_.ops_per_writer > 0)) {
      validate_span("write_span", spec_.write_span, k);
    }
  }
  if (opts_.mode != ArrivalMode::kClosedLoop) {
    if (read_fraction > 0 && sys_.num_readers() == 0) {
      throw std::invalid_argument("DriverOptions: read_fraction > 0 but the system has no "
                                  "read clients");
    }
    if (read_fraction < 1 && sys_.num_writers() == 0) {
      throw std::invalid_argument("DriverOptions: read_fraction < 1 but the system has no "
                                  "write clients");
    }
  }
  if (open_loop && opts_.arrival_interval_ns == 0) {
    throw std::invalid_argument("DriverOptions: open loop needs arrival_interval_ns > 0");
  }

  SplitMix64 seeds(spec_.seed);
  switch (opts_.mode) {
    case ArrivalMode::kClosedLoop:
      for (std::size_t i = 0; i < sys_.num_readers() + sys_.num_writers(); ++i) {
        streams_.emplace_back(k, spec_, seeds.next());
      }
      total_ops_ =
          sys_.num_readers() * spec_.ops_per_reader + sys_.num_writers() * spec_.ops_per_writer;
      break;
    case ArrivalMode::kMixedClosedLoop:
    case ArrivalMode::kOpenLoop:
      // A TrafficModel draws per shard: at 10^6 logical clients there is
      // nothing per protocol client to build.
      if (!opts_.traffic) {
        for (std::size_t i = 0; i < sys_.num_clients(); ++i) {
          streams_.emplace_back(k, spec_, seeds.next());
          client_coins_.emplace_back(seeds.next());
        }
      }
      total_ops_ = open_loop ? opts_.total_ops : sys_.num_clients() * opts_.ops_per_client;
      break;
  }
  remaining_ops_.store(total_ops_, std::memory_order_relaxed);

  // Open-loop timer chains run on owned nodes' executors: node 0 on
  // single-process runtimes, the client nodes when driving a remote
  // NetRuntime fleet.
  std::vector<NodeId> owned;
  for (NodeId id = 0; id < rt_.node_count(); ++id) {
    if (rt_.owns_node(id)) owned.push_back(id);
  }
  SNOW_CHECK_MSG(!owned.empty(),
                 "WorkloadDriver: the runtime owns no local node to anchor timers on");
  if (!open_loop) return;
  // Each shard anchors on its own owned node (distinct executors run
  // distinct shards concurrently on the threaded runtimes; with fewer owned
  // nodes than shards the anchors wrap and chains serialize, which is slower
  // but still correct).  Protocol client slots are partitioned across shards
  // so concurrent shards never interleave on one TxnClient queue; the
  // logical-client population is partitioned the same way.
  const std::size_t shard_count = opts_.arrival_shards;
  const std::size_t clients = sys_.num_clients();
  shards_.resize(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    ArrivalShard& sh = shards_[s];
    sh.anchor = owned[s % owned.size()];
    sh.arrivals_left = total_ops_ / shard_count + (s < total_ops_ % shard_count ? 1 : 0);
    if (clients >= shard_count) {
      sh.client_lo = s * clients / shard_count;
      sh.client_hi = (s + 1) * clients / shard_count;
    } else {
      sh.client_lo = 0;
      sh.client_hi = clients;
    }
    if (!opts_.traffic) continue;
    const std::uint64_t logical = opts_.traffic->logical_clients;
    std::uint64_t lo = 0, hi = logical;
    if (logical >= shard_count) {
      lo = s * logical / shard_count;
      hi = (s + 1) * logical / shard_count;
    }
    sh.traffic = std::make_unique<TrafficShard>(k, *opts_.traffic, seeds.next(), lo, hi);
  }
}

void WorkloadDriver::start() {
  if (total_ops_ == 0) return;
  switch (opts_.mode) {
    case ArrivalMode::kClosedLoop: {
      const std::size_t readers = sys_.num_readers();
      for (std::size_t i = 0; i < readers; ++i) {
        if (spec_.ops_per_reader > 0) issue_chain(i, streams_[i], true, spec_.ops_per_reader);
      }
      for (std::size_t i = 0; i < sys_.num_writers(); ++i) {
        if (spec_.ops_per_writer > 0) {
          issue_chain(i, streams_[readers + i], false, spec_.ops_per_writer);
        }
      }
      return;
    }
    case ArrivalMode::kMixedClosedLoop:
      for (std::size_t i = 0; i < sys_.num_clients(); ++i) {
        issue_chain(i, streams_[i], std::nullopt, opts_.ops_per_client);
      }
      return;
    case ArrivalMode::kOpenLoop:
      start_ns_ = rt_.now_ns();
      for (std::size_t s = 0; s < shards_.size(); ++s) {
        ArrivalShard& sh = shards_[s];
        if (sh.arrivals_left == 0) continue;
        // Phase-offset the shards: shard s's first deadline is (s+1) base
        // intervals out and it steps by S bases, so the AGGREGATE process
        // keeps the nominal per-arrival spacing.
        sh.next_deadline = start_ns_ + next_interval(sh, 0) * static_cast<TimeNs>(s + 1);
        schedule(s);
      }
      return;
  }
}

void WorkloadDriver::issue_chain(std::size_t client, OpStream& stream, std::optional<bool> kind,
                                 std::size_t remaining) {
  const bool is_read = kind ? *kind : client_coins_[client].chance(opts_.read_fraction);
  auto objs = stream.next_objects(is_read ? spec_.read_span : spec_.write_span);
  // Closed loop has no backlog to measure; skip the shared-histogram lock
  // so concurrent completion chains on ThreadRuntime don't serialize here.
  sys_.client(client).submit(make_request(is_read, std::move(objs)),
                             [this, client, &stream, kind, remaining](const TxnResult& r) {
                               op_finished(r.is_read);
                               if (remaining > 1) issue_chain(client, stream, kind, remaining - 1);
                             });
}

TxnRequest WorkloadDriver::make_request(bool is_read, std::vector<ObjectId> objs) {
  if (is_read) return read_txn(std::move(objs));
  std::vector<std::pair<ObjectId, Value>> writes;
  writes.reserve(objs.size());
  for (ObjectId obj : objs) {
    // Globally unique values let the checkers identify producers exactly.
    writes.emplace_back(obj,
                        static_cast<Value>(next_value_.fetch_add(1, std::memory_order_relaxed)));
  }
  return write_txn(std::move(writes));
}

void WorkloadDriver::record_sojourn(TimeNs deadline) {
  const TimeNs now = rt_.now_ns();
  std::lock_guard<std::mutex> lock(sojourn_mu_);
  sojourn_.record(now >= deadline ? now - deadline : 0);
}

void WorkloadDriver::note_arrival_issued() {
  arrivals_issued_.fetch_add(1, std::memory_order_acq_rel);
  const TimeNs now = rt_.now_ns();
  TimeNs prev = last_arrival_ns_.load(std::memory_order_relaxed);
  while (prev < now &&
         !last_arrival_ns_.compare_exchange_weak(prev, now, std::memory_order_acq_rel)) {
  }
}

LatencySummary WorkloadDriver::sojourn_latency() const {
  std::lock_guard<std::mutex> lock(sojourn_mu_);
  return summarize_histogram(sojourn_);
}

std::size_t WorkloadDriver::in_flight() const {
  const std::size_t issued = arrivals_issued_.load(std::memory_order_acquire);
  const std::size_t completed = total_ops_ - remaining_ops_.load(std::memory_order_acquire);
  return issued > completed ? issued - completed : 0;
}

double WorkloadDriver::achieved_arrival_rate() const {
  const std::size_t issued = arrivals_issued_.load(std::memory_order_acquire);
  const TimeNs last = last_arrival_ns_.load(std::memory_order_acquire);
  if (issued == 0 || last <= start_ns_) return 0;
  return static_cast<double>(issued) / (static_cast<double>(last - start_ns_) * 1e-9);
}

TrafficArrival WorkloadDriver::next_arrival(ArrivalShard& sh, std::size_t client) {
  if (sh.traffic) return sh.traffic->next();
  TrafficArrival a;
  a.is_read = coin_.chance(opts_.read_fraction);
  a.objects = streams_[client].next_objects(a.is_read ? spec_.read_span : spec_.write_span);
  return a;
}

TimeNs WorkloadDriver::next_interval(ArrivalShard& sh, TimeNs elapsed) {
  // The base gap can vary along a TrafficModel's rate curve.
  return sh.traffic ? sh.traffic->next_interval(elapsed, opts_.arrival_interval_ns)
                    : opts_.arrival_interval_ns;
}

void WorkloadDriver::schedule(std::size_t shard) {
  ArrivalShard& sh = shards_[shard];
  const TimeNs now = rt_.now_ns();
  const TimeNs delay = sh.next_deadline > now ? sh.next_deadline - now : 0;
  rt_.post_after(sh.anchor, delay, [this, shard] { tick(shard); });
}

void WorkloadDriver::tick(std::size_t shard) {
  ArrivalShard& sh = shards_[shard];
  if (sh.arrivals_left == 0) return;
  if (paused_.load(std::memory_order_acquire)) {
    rt_.post_after(sh.anchor, pause_poll_ns(opts_.arrival_interval_ns),
                   [this, shard] { tick(shard); });
    return;
  }
  // Absolute-deadline pacing with catch-up: every arrival whose deadline has
  // passed is issued NOW (late, but issued), and the timer re-arms for the
  // next future deadline.  A slow callback therefore delays individual
  // arrivals without stretching the period — the delivered rate tracks the
  // nominal rate instead of silently drifting below it.
  const auto stride = static_cast<TimeNs>(shards_.size());
  const TimeNs now = rt_.now_ns();
  while (sh.arrivals_left > 0 && sh.next_deadline <= now) {
    --sh.arrivals_left;
    const TimeNs deadline = sh.next_deadline;
    const std::size_t client = sh.client_lo + sh.next_client;
    sh.next_client = (sh.next_client + 1) % (sh.client_hi - sh.client_lo);
    TrafficArrival a = next_arrival(sh, client);
    note_arrival_issued();
    if (opts_.after_arrival) opts_.after_arrival();
    sh.next_deadline += next_interval(sh, deadline - start_ns_) * stride;
    // The shard's last arrival can complete the run, and the caller may
    // destroy the driver as soon as done() is true: nothing touches `this`
    // after that submit.
    const bool last = sh.arrivals_left == 0;
    // Sojourn measures from the INTENDED deadline, not the (possibly late)
    // issuance instant: a paced client that fell behind still "arrived" on
    // schedule, so the delay it suffered is queueing, not a shorter wait —
    // the coordinated-omission-correct bookkeeping.
    sys_.client(client).submit(make_request(a.is_read, std::move(a.objects)),
                               [this, deadline](const TxnResult& r) {
                                 record_sojourn(deadline);
                                 op_finished(r.is_read);
                               });
    if (last) return;
  }
  schedule(shard);
}

WorkloadDriver::~WorkloadDriver() {
  // The last completion notifies under mu_ after done() turns true; wait it
  // out before the members go.
  std::lock_guard<std::mutex> lock(mu_);
}

void WorkloadDriver::op_finished(bool was_read) {
  (was_read ? reads_done_ : writes_done_).fetch_add(1, std::memory_order_acq_rel);
  // Every op but the last counts down lock-free.  The last one counts down
  // under mu_, so a caller that sees done() and destroys the driver blocks
  // in the destructor until this notify has finished.
  std::size_t left = remaining_ops_.load(std::memory_order_acquire);
  while (left > 1 &&
         !remaining_ops_.compare_exchange_weak(left, left - 1, std::memory_order_acq_rel)) {
  }
  if (left > 1) return;
  std::lock_guard<std::mutex> lock(mu_);
  remaining_ops_.fetch_sub(1, std::memory_order_acq_rel);
  cv_.notify_all();
}

bool WorkloadDriver::done() const {
  return remaining_ops_.load(std::memory_order_acquire) == 0;
}

void WorkloadDriver::wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return done(); });
}

LatencySummary summarize_latency(const History& h, bool reads) {
  Histogram hist;
  for (const auto& t : h.txns) {
    if (!t.complete || t.is_read != reads) continue;
    hist.record(t.respond_ns >= t.invoke_ns ? t.respond_ns - t.invoke_ns : 0);
  }
  return summarize_histogram(hist);
}

int max_read_rounds(const History& h) {
  int r = 0;
  for (const auto& t : h.txns) {
    if (t.complete && t.is_read) r = std::max(r, t.rounds);
  }
  return r;
}

int max_read_versions(const History& h) {
  int v = 0;
  for (const auto& t : h.txns) {
    if (t.complete && t.is_read) v = std::max(v, t.max_versions);
  }
  return v;
}

}  // namespace snowkit

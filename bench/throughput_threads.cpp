// Scenario "throughput_threads": wall-clock throughput on the threaded
// runtime — the same protocol state machines under real concurrency
// (per-node threads, serialized messages, mutex-protected mailboxes).
//
// Two measurements:
//  1. mailbox flood — raw message throughput through ThreadRuntime
//     mailboxes, run in BOTH runtime modes: the batched fast path
//     (batch-drain + recycled encode buffers) and the legacy
//     per-message-lock baseline.  Their ratio is the note
//     "flood_speedup_x", which CI gates on.
//  2. protocol closed loops — end-to-end ops/s per protocol on the fast
//     path, with a warmup run before the measured run.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <mutex>

#include "audit/capture.hpp"
#include "bench_util.hpp"
#include "metrics/gc_stats.hpp"
#include "metrics/wire_stats.hpp"
#include "msg/codec.hpp"
#include "runtime/thread_runtime.hpp"

namespace snowkit {
namespace {

using bench::BenchRecord;
using bench::ScenarioOptions;
using bench::ScenarioResult;

// --- raw mailbox flood -------------------------------------------------------

/// Counts deliveries on a shared atomic (no per-message lock, so the sink
/// does not mask the mailbox cost being measured); the last delivery
/// releases the waiter.
class FloodSink final : public Node {
 public:
  FloodSink(std::mutex& mu, std::condition_variable& cv, std::atomic<std::size_t>& delivered,
            std::size_t total)
      : mu_(mu), cv_(cv), delivered_(delivered), total_(total) {}

  void on_message(NodeId, const Message&) override {
    if (delivered_.fetch_add(1, std::memory_order_acq_rel) + 1 == total_) {
      std::lock_guard<std::mutex> lock(mu_);
      cv_.notify_all();
    }
  }

 private:
  std::mutex& mu_;
  std::condition_variable& cv_;
  std::atomic<std::size_t>& delivered_;
  std::size_t total_;
};

/// Senders are plain nodes; the bench posts the send loop onto them.
class FloodSource final : public Node {
 public:
  void on_message(NodeId, const Message&) override {}
};

struct FloodResult {
  double msgs_per_sec{0};
  double secs{0};
  std::uint64_t messages{0};
  std::uint64_t wire_bytes{0};
  double batch_mean{0};  ///< messages delivered per worker wakeup.
};

/// `senders` nodes each fire `per_sender` messages at `sinks` receivers
/// (round-robin); measures wall-clock from first send to last delivery.
/// An optional observer rides along (used for the audited-flood overhead
/// measurement below).
FloodResult run_flood(bool batched, std::size_t senders, std::size_t sinks,
                      std::size_t per_sender, MessageObserver* obs = nullptr) {
  ThreadRuntime rt(ThreadRuntime::Options{batched});
  if (obs != nullptr) rt.set_observer(obs);
  std::mutex mu;
  std::condition_variable cv;
  std::atomic<std::size_t> delivered{0};
  const std::size_t total = senders * per_sender;
  std::vector<NodeId> sink_ids, source_ids;
  for (std::size_t i = 0; i < sinks; ++i) {
    sink_ids.push_back(rt.add_node(std::make_unique<FloodSink>(mu, cv, delivered, total)));
  }
  for (std::size_t i = 0; i < senders; ++i) {
    source_ids.push_back(rt.add_node(std::make_unique<FloodSource>()));
  }
  rt.start();
  const Message probe{1, SimpleWriteReq{0, 1}};

  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t s = 0; s < senders; ++s) {
    const NodeId self = source_ids[s];
    rt.post(self, [&rt, &sink_ids, &probe, self, s, per_sender] {
      for (std::size_t i = 0; i < per_sender; ++i) {
        Message m = probe;
        m.txn = static_cast<TxnId>(i);
        rt.send(self, sink_ids[(s + i) % sink_ids.size()], std::move(m));
      }
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return delivered.load(std::memory_order_acquire) == total; });
  }
  const auto t1 = std::chrono::steady_clock::now();
  rt.stop();  // joins workers: their counter updates happen-before the read below
  const auto stats = rt.delivery_stats();

  FloodResult out;
  out.secs = std::chrono::duration<double>(t1 - t0).count();
  out.messages = total;
  out.msgs_per_sec = static_cast<double>(total) / out.secs;
  out.wire_bytes = total * encoded_size(probe);
  out.batch_mean = stats.wakeups == 0 ? 0.0
                                      : static_cast<double>(stats.messages) /
                                            static_cast<double>(stats.wakeups);
  return out;
}

FloodResult best_flood(bool batched, std::size_t senders, std::size_t sinks,
                       std::size_t per_sender, int repeats) {
  run_flood(batched, senders, sinks, per_sender / 4 + 1);  // warmup
  FloodResult best;
  for (int i = 0; i < repeats; ++i) {
    FloodResult r = run_flood(batched, senders, sinks, per_sender);
    if (r.msgs_per_sec > best.msgs_per_sec) best = r;
  }
  return best;
}

/// The flood with the flight recorder attached — the always-on-capture
/// overhead datapoint CI gates on (audit_drops / audit_bytes extras, and the
/// "audit_overhead_pct" note against the plain batched flood).
struct AuditedFlood {
  FloodResult flood;
  audit::CaptureStats cap;
};

/// The flood pushes >5M observer events/s — far past any real protocol
/// workload — so the recorder runs at the sampling rate a deployment would
/// use on a path this hot.  A sampled-out event costs two plain stores
/// (no lock, no clock read); protocol-rate captures (net_loopback, the
/// daemons) record every message.
constexpr std::uint64_t kFloodAuditSample = 32;

/// Measures capture overhead with interleaved pairs and a median-of-ratios
/// estimate: each rep runs the two modes back to back so a machine-state
/// drift (or a scheduler regime flip on small boxes) hits both sides of one
/// ratio instead of biasing a whole mode's block.
///
/// Both sides run a WireStats observer — every protocol deployment already
/// does (and the capture chains it via `next`), so the virtual-dispatch
/// seam is sunk cost and the ratio isolates what TURNING THE RECORDER ON
/// adds: the sampling gate plus the sampled share of ring writes.
AuditedFlood measure_audit_overhead(std::size_t senders, std::size_t sinks,
                                    std::size_t per_sender, int repeats, double* pct_out) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("snowkit_audit_flood_" +
                    std::to_string(static_cast<unsigned long long>(
                        std::chrono::steady_clock::now().time_since_epoch().count())));
  AuditedFlood best;
  std::vector<double> ratios;
  for (int i = 0; i < repeats; ++i) {
    // Alternate which mode runs first: back-to-back runs are not exchangeable
    // (page cache, frequency, scheduler state), and a fixed order would bake
    // that drift into every ratio as phantom overhead.
    FloodResult plain, audited_r;
    audit::CaptureStats cap_stats;
    auto run_plain = [&] {
      WireStats wire;
      plain = run_flood(/*batched=*/true, senders, sinks, per_sender, &wire);
    };
    auto run_audited = [&] {
      audit::CaptureOptions copts;
      copts.dir = dir.string();
      copts.protocol = "mailbox-flood";
      copts.num_servers = 0;
      copts.sample_every = kFloodAuditSample;
      // Sized to the sampled volume: the default 16K-slot rings would cost
      // ~12MB of first-touch zeroing + cache footprint across 16 threads,
      // which on a small machine reads as phantom "capture overhead".
      copts.ring_capacity = 2048;
      WireStats wire;
      audit::AuditCapture cap(copts, &wire);
      audited_r = run_flood(/*batched=*/true, senders, sinks, per_sender, &cap);
      cap.close();
      cap_stats = cap.stats();
    };
    if (i % 2 == 0) {
      run_plain();
      run_audited();
    } else {
      run_audited();
      run_plain();
    }
    if (plain.msgs_per_sec > 0) ratios.push_back(audited_r.msgs_per_sec / plain.msgs_per_sec);
    if (audited_r.msgs_per_sec > best.flood.msgs_per_sec) best = {audited_r, cap_stats};
  }
  std::sort(ratios.begin(), ratios.end());
  const double median = ratios.empty() ? 1.0 : ratios[ratios.size() / 2];
  *pct_out = (1.0 - median) * 100.0;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);  // overhead datapoint only; chunks discarded
  return best;
}

// --- protocol closed loops ---------------------------------------------------

struct ThreadsRun {
  double ops_per_sec{0};
  std::size_t threads{0};
  std::uint64_t ops{0};
  LatencySummary read_latency;  ///< closed loop: invoke->respond == sojourn.
  std::uint64_t wire_messages{0};
  std::uint64_t wire_bytes{0};
  GcSnapshot gc;  ///< version-store GC delta for this run.
};

ThreadsRun run_threads_once(const std::string& kind, std::size_t readers, std::size_t writers,
                            std::size_t ops_per_reader, std::size_t ops_per_writer) {
  const GcSnapshot gc_before = GcCounters::global().snapshot();
  ThreadRuntime rt;
  WireStats wire;
  rt.set_observer(&wire);
  HistoryRecorder rec(4);
  auto sys = build_protocol(kind, rt, rec, SystemConfig{4, readers, writers});
  rt.start();
  WorkloadSpec spec;
  spec.ops_per_reader = ops_per_reader;
  spec.ops_per_writer = ops_per_writer;
  spec.read_span = 2;
  spec.write_span = 2;
  spec.seed = 3;
  WorkloadDriver driver(rt, *sys, spec);
  const auto t0 = std::chrono::steady_clock::now();
  driver.start();
  driver.wait();
  const auto t1 = std::chrono::steady_clock::now();
  rt.stop();

  ThreadsRun out;
  out.threads = 4 + readers + writers;
  out.ops = driver.total_ops();
  out.ops_per_sec =
      static_cast<double>(driver.total_ops()) / std::chrono::duration<double>(t1 - t0).count();
  out.read_latency = summarize_latency(rec.snapshot(), /*reads=*/true);
  out.wire_messages = wire.messages();
  out.wire_bytes = wire.bytes();
  out.gc = GcCounters::global().snapshot().delta(gc_before);
  return out;
}

ThreadsRun run_threads(const std::string& kind, std::size_t readers, std::size_t writers,
                       std::size_t ops_per_reader, std::size_t ops_per_writer) {
  // Warmup pass (thread spawn, allocator, branch predictors), then measure.
  run_threads_once(kind, readers, writers, ops_per_reader / 4 + 1, ops_per_writer / 4 + 1);
  return run_threads_once(kind, readers, writers, ops_per_reader, ops_per_writer);
}

ScenarioResult run_scenario(const ScenarioOptions& opts) {
  ScenarioResult result;

  // 1. Raw mailbox flood: fast path vs per-message-lock baseline.  An 8x8
  // fleet floods small messages round-robin — the shape where per-message
  // lock round-trips, idle notifications and encode allocations dominate,
  // which is precisely what batch-drain + the buffer pool amortize away.
  const std::size_t senders = 8, sinks = 8;
  const std::size_t per_sender = opts.scaled(100'000, 4);
  // Each flood rep is ~0.1s; best-of-N per mode because the overhead
  // comparison (audit vs plain) needs both ceilings, not two noisy samples —
  // on a busy/small machine run-to-run scheduling noise exceeds the delta.
  const int repeats = opts.quick ? 9 : 11;
  const FloodResult fast = best_flood(/*batched=*/true, senders, sinks, per_sender, repeats);
  const FloodResult legacy = best_flood(/*batched=*/false, senders, sinks, per_sender, repeats);
  // Overhead pairs use 2 sinks: 4x-deeper per-sink queues keep the drain
  // loop in its steady batched regime in BOTH modes.  With 8 idle-prone
  // sinks, the audited senders' extra ns/msg can tip consumers into a
  // wake-per-message regime and the "overhead" reading becomes a futex
  // artifact (observed swinging -15%..+27% run to run), not capture cost.
  double audit_pct = 0;
  const AuditedFlood audited =
      measure_audit_overhead(senders, /*sinks=*/2, per_sender, repeats, &audit_pct);
  const double speedup = legacy.msgs_per_sec > 0 ? fast.msgs_per_sec / legacy.msgs_per_sec : 0;

  bench::heading("mailbox flood: fast path (batch-drain + buffer reuse) vs per-message lock");
  const std::vector<int> fw{22, 16, 14, 16};
  bench::row({"mode", "msgs/s", "batch mean", "wall secs"}, fw);
  auto flood_row = [&](const char* mode, const FloodResult& r) {
    char msgs[32], batch[32], secs[32];
    std::snprintf(msgs, sizeof msgs, "%.0f", r.msgs_per_sec);
    std::snprintf(batch, sizeof batch, "%.1f", r.batch_mean);
    std::snprintf(secs, sizeof secs, "%.3f", r.secs);
    bench::row({mode, msgs, batch, secs}, fw);
  };
  flood_row("batched (fast path)", fast);
  flood_row("per-message lock", legacy);
  flood_row("batched + audit", audited.flood);
  std::printf("\nspeedup: %.2fx (%zu senders x %zu msgs -> %zu sinks); audit capture (1/%llu "
              "sampling) costs %.1f%% over the wire-stats baseline every deployment runs "
              "(%llu events, %llu dropped, %llu chunk bytes)\n",
              speedup, senders, per_sender, sinks,
              static_cast<unsigned long long>(kFloodAuditSample), audit_pct,
              static_cast<unsigned long long>(audited.cap.events),
              static_cast<unsigned long long>(audited.cap.drops),
              static_cast<unsigned long long>(audited.cap.bytes_written));

  for (const auto* pair : {&fast, &legacy}) {
    BenchRecord rec;
    rec.protocol = "mailbox-flood";
    rec.threads = senders + sinks;
    rec.ops = pair->messages;
    rec.ops_per_sec = pair->msgs_per_sec;
    rec.wire_messages = pair->messages;
    rec.wire_bytes = pair->wire_bytes;
    rec.set("mode", pair == &fast ? "batched" : "per-message-lock");
    char batch[32];
    std::snprintf(batch, sizeof batch, "%.2f", pair->batch_mean);
    rec.set("batch_mean", batch);
    result.records.push_back(std::move(rec));
  }
  {
    BenchRecord rec;
    rec.protocol = "mailbox-flood";
    rec.threads = senders + sinks;
    rec.ops = audited.flood.messages;
    rec.ops_per_sec = audited.flood.msgs_per_sec;
    rec.wire_messages = audited.flood.messages;
    rec.wire_bytes = audited.flood.wire_bytes;
    rec.set("mode", "batched-audit");
    rec.set("audit_sample", std::to_string(kFloodAuditSample));
    rec.set("audit_events", std::to_string(audited.cap.events));
    rec.set("audit_sampled_out", std::to_string(audited.cap.sampled_out));
    rec.set("audit_drops", std::to_string(audited.cap.drops));
    rec.set("audit_bytes", std::to_string(audited.cap.bytes_written));
    rec.set("audit_chunks", std::to_string(audited.cap.chunks));
    result.records.push_back(std::move(rec));
  }
  char sp[32];
  std::snprintf(sp, sizeof sp, "%.2f", speedup);
  result.note("flood_speedup_x", sp);
  char ap[32];
  std::snprintf(ap, sizeof ap, "%.2f", audit_pct);
  result.note("audit_overhead_pct", ap);

  // 2. Protocol closed loops on the fast path.
  bench::heading("threaded runtime throughput (4 shards, ops/s wall clock)");
  const std::vector<int> widths{14, 10, 10, 14, 12};
  bench::row({"protocol", "readers", "writers", "ops/s", "p50(us)"}, widths);
  struct Line {
    std::string kind;
    std::size_t readers, writers;
  };
  const std::vector<Line> all_lines = {
      {"simple", 2, 2},  {"algo-a", 1, 3},      {"algo-b", 2, 2},
      {"algo-c", 2, 2},  {"eiger", 2, 2},       {"blocking-2pl", 2, 2},
  };
  for (const Line& line : all_lines) {
    if (!opts.wants(line.kind)) continue;
    const ThreadsRun r = run_threads(line.kind, line.readers, line.writers,
                                     opts.scaled(2000), opts.scaled(500));
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", r.ops_per_sec);
    bench::row({line.kind, std::to_string(line.readers), std::to_string(line.writers), buf,
                bench::us(static_cast<double>(r.read_latency.p50_ns))},
               widths);
    BenchRecord rec;
    rec.protocol = line.kind;
    rec.shards = 4;
    rec.threads = r.threads;
    rec.ops = r.ops;
    rec.ops_per_sec = r.ops_per_sec;
    rec.latency(r.read_latency);
    rec.wire_messages = r.wire_messages;
    rec.wire_bytes = r.wire_bytes;
    if (r.gc.inserted > 0) {
      rec.set("gc_versions_inserted", std::to_string(r.gc.inserted));
      rec.set("gc_versions_pruned", std::to_string(r.gc.pruned));
    }
    result.records.push_back(std::move(rec));
  }
  std::printf("\nshape check: fewer rounds -> fewer mailbox hops -> higher closed-loop\n"
              "throughput; blocking-2pl pays lock queuing on top of its extra rounds.\n");
  bench::stamp_host_cores(result);
  return result;
}

const bench::ScenarioRegistration kReg{
    "throughput_threads",
    "wall-clock msgs/s + per-protocol ops/s on ThreadRuntime; gates the fast path vs the "
    "per-message-lock baseline",
    run_scenario};

}  // namespace
}  // namespace snowkit

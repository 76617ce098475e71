// The four workloads and the measurement helpers every repetition shares.
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <ctime>
#include <map>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "checker/tag_order.hpp"
#include "suite.hpp"

namespace snowkit::suite {

const std::vector<Workload>& workloads() {
  // Rates sit below the knee of this fleet on a 4-vCPU host: each workload
  // achieves its nominal rate with a sojourn median within a third of its
  // protocol-latency median, so a run measures latency at a sustained load
  // rather than queue growth.
  static const std::vector<Workload> kWorkloads = {
      // The paper's read-dominated regime: algo-c responses at 4096 objects
      // are large, so transport and codec do most of the work while the
      // version store idles at ~0.07 writes/s per object.
      {"tcp-read-uniform", "algo-c", true, 4096, 0.0, 0.9, 3000, 1, 0},
      // Same fleet, write-heavy and skewed: coordinator List, VersionStore
      // and GC work on hot keys, two-round reads queue behind writes, and
      // messages are small — the control for codec and message-size changes.
      {"tcp-write-zipf", "algo-b", true, 256, 0.99, 0.5, 2000, 1, 0},
      // The only workload with replication and WAL fdatasync on the write
      // path, and the only one exercising adaptive B<->C modes and the
      // proved client cache.
      {"tcp-durable-adaptive", "adaptive", true, 1024, 0.9, 0.8, 1500, 2, 0},
      // tcp-write-zipf's traffic on the simulator: no transport, threads or
      // scheduler, so CPU per op is protocol + store + codec alone (the
      // control for transport changes) and latency is exact virtual time.
      {"sim-write-zipf", "algo-b", false, 256, 0.99, 0.5, 400, 1, 10000},
  };
  return kWorkloads;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

SystemConfig system_config(const Workload& w) {
  SystemConfig cfg;
  cfg.num_objects = w.objects;
  cfg.num_readers = kReaders;
  cfg.num_writers = kWriters;
  cfg.num_servers = kShards;
  return cfg;
}

BuildOptions build_options(const Workload& w) {
  BuildOptions b;
  if (w.replicas == 2) b.set("replicas", std::int64_t{2});
  return b;
}

Workload virtual_twin(const Workload& w) {
  Workload v = w;
  v.tcp = false;
  v.rate = 400;
  v.sim_ops = 10000;
  return v;
}

DriverOptions driver_options(const Workload& w, std::size_t ops) {
  TrafficModel model;
  model.zipf_theta = w.zipf_theta;
  model.permute_ranks = true;
  model.read_fraction = w.read_fraction;
  model.read_span = SpanDist{SpanKind::kGeometric, 1, 4, 0.5};
  model.write_span = SpanDist::fixed(2);
  model.logical_clients = 1'000'000;

  DriverOptions d;
  d.mode = ArrivalMode::kOpenLoop;
  d.total_ops = ops;
  d.arrival_interval_ns = static_cast<TimeNs>(1e9 / w.rate);
  d.traffic = model;
  d.arrival_shards = 1;
  return d;
}

const std::vector<std::string>& tracked_payloads() {
  static const std::vector<std::string> kPayloads = {
      "write-val",      "write-val-ack",       "update-coor",     "update-coor-ack",
      "finalize",       "finalize-coor",       "read-done",       "get-tag-arr",
      "tag-arr",        "read-val",            "read-val-resp",   "read-vals",
      "read-vals-resp", "adapt-tag-arr",       "read-val-batch",  "read-val-batch-resp",
      "read-vals-batch", "read-vals-batch-resp", "repl-append",   "repl-append-ack",
  };
  return kPayloads;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::size_t host_cores() { return std::max(1u, std::thread::hardware_concurrency()); }

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> out;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return out;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) out.push_back(c);
  }
  return out;
}

void pin_to_cpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0) {
    throw std::runtime_error("cannot pin to CPU " + std::to_string(cpu));
  }
}

void add_history_metrics(const History& h, TimeNs from_ns, Metrics& m) {
  std::vector<double> reads, writes;
  double latency_sum = 0, rounds_sum = 0, versions_sum = 0;
  int rounds_max = 0, versions_max = 0;
  TimeNs last = from_ns;
  for (const TxnRecord& t : h.txns) {
    if (!t.complete || t.invoke_ns < from_ns) continue;
    const double us = static_cast<double>(t.respond_ns - t.invoke_ns) / 1e3;
    latency_sum += us;
    last = std::max(last, t.respond_ns);
    if (t.is_read) {
      reads.push_back(us);
      rounds_sum += t.rounds;
      versions_sum += t.max_versions;
      rounds_max = std::max(rounds_max, t.rounds);
      versions_max = std::max(versions_max, t.max_versions);
    } else {
      writes.push_back(us);
    }
  }
  const double n = static_cast<double>(reads.size() + writes.size());
  const double nr = std::max<double>(1, static_cast<double>(reads.size()));
  m["diag.read_p50_us"] = quantile(reads, 0.50);
  m["diag.read_p95_us"] = quantile(reads, 0.95);
  m["diag.write_p50_us"] = quantile(writes, 0.50);
  m["diag.read_p99_us"] = quantile(reads, 0.99);
  m["diag.read_p999_us"] = quantile(reads, 0.999);
  m["diag.write_p99_us"] = quantile(writes, 0.99);
  m["proto.read_rounds_mean"] = rounds_sum / nr;
  m["proto.read_versions_mean"] = versions_sum / nr;
  m["proto.read_rounds_max"] = rounds_max;
  m["proto.read_versions_max"] = versions_max;
  m["protocol_latency_mean_us"] = n > 0 ? latency_sum / n : 0;
  m["achieved_ops_per_s"] = last > from_ns ? n / (static_cast<double>(last - from_ns) * 1e-9) : 0;
}

void add_sojourn_metrics(const WorkloadDriver& d, Metrics& m) {
  const LatencySummary s = d.sojourn_latency();
  m["diag.sojourn_p50_us"] = static_cast<double>(s.p50_ns) / 1e3;
  m["diag.sojourn_p95_us"] = static_cast<double>(s.p95_ns) / 1e3;
  m["diag.sojourn_p99_us"] = static_cast<double>(s.p99_ns) / 1e3;
  // Sojourn = issue lateness + TxnClient queueing + protocol latency, and
  // means add exactly (the histogram's mean is exact), so the difference of
  // the means is the client's wait.
  m["driver.queue_wait_mean_us"] = s.mean_ns / 1e3 - m["protocol_latency_mean_us"];
}

void add_leg_metrics(const audit::MergedAudit& merged, Metrics& m) {
  // Client nodes are registered right after the servers; backup replicas
  // (replicas 2) come after the clients and are servers too.
  const NodeId clients_lo = merged.num_servers;
  const NodeId clients_hi = clients_lo + static_cast<NodeId>(kClientNodes);
  const auto is_server = [&](NodeId n) { return n < clients_lo || n >= clients_hi; };

  const auto& acts = merged.trace.actions();
  std::map<std::uint64_t, std::size_t> send_of;  // msg_seq -> Send index
  // A server's sends per (server, txn, requester), in time order: the reply
  // that ends a server-handle leg is the first one at or after the request.
  std::map<std::tuple<NodeId, TxnId, NodeId>, std::vector<TimeNs>> replies;
  for (std::size_t i = 0; i < acts.size(); ++i) {
    const Action& a = acts[i];
    if (a.kind != ActionKind::Send) continue;
    send_of[a.msg_seq] = i;
    if (is_server(a.node) && a.txn != kInvalidTxn) replies[{a.node, a.txn, a.peer}].push_back(a.time);
  }

  std::map<std::string, std::vector<double>> legs;
  std::map<TxnId, std::vector<std::pair<TimeNs, TimeNs>>> spans;  // per txn, every leg
  const auto add = [&](const char* leg, TxnId txn, TimeNs from, TimeNs to) {
    legs[leg].push_back(static_cast<double>(to >= from ? to - from : 0) / 1e3);
    if (txn != kInvalidTxn) spans[txn].emplace_back(from, std::max(from, to));
  };
  for (const Action& a : acts) {
    if (a.kind != ActionKind::Recv) continue;
    if (const auto it = send_of.find(a.msg_seq); it != send_of.end()) {
      const Action& s = acts[it->second];
      const bool from_server = is_server(s.node), to_server = is_server(a.node);
      add(from_server ? (to_server ? "server_to_server" : "reply_transit")
                      : (to_server ? "request_transit" : "client_to_client"),
          a.txn, s.time, a.time);
    }
    if (!is_server(a.node) || a.txn == kInvalidTxn) continue;
    const auto r = replies.find({a.node, a.txn, a.peer});
    if (r == replies.end()) continue;
    const auto next = std::lower_bound(r->second.begin(), r->second.end(), a.time);
    if (next != r->second.end()) add("server_handle", a.txn, a.time, *next);
  }
  for (const char* leg : {"request_transit", "server_handle", "reply_transit", "server_to_server"}) {
    const std::vector<double>& v = legs[leg];
    m[std::string("leg.") + leg + "_p50_us"] = quantile(v, 0.50);
    m[std::string("leg.") + leg + "_p99_us"] = quantile(v, 0.99);
  }

  // The share of READ latency (invoke -> respond, summed over completed
  // READs) that no captured leg covers: client-side queueing, executor
  // hand-offs, scheduling.  Covered time is the union of the READ's leg
  // intervals, so parallel requests are not counted twice.
  double covered = 0, latency = 0;
  if (merged.history) {
    for (const TxnRecord& t : merged.history->txns) {
      if (!t.complete || !t.is_read) continue;
      latency += static_cast<double>(t.respond_ns - t.invoke_ns);
      auto& v = spans[t.id];
      std::sort(v.begin(), v.end());
      TimeNs reach = t.invoke_ns;
      for (const auto& [from, to] : v) {
        const TimeNs lo = std::max(from, reach), hi = std::min(to, t.respond_ns);
        if (hi > lo) covered += static_cast<double>(hi - lo);
        reach = std::max(reach, std::min(to, t.respond_ns));
      }
    }
  }
  m["leg.unexplained_frac"] = latency > 0 ? 1.0 - covered / latency : 0;
}

void check_history(const std::string& protocol, const History& h, Rep& rep) {
  if (!provides_tags(protocol)) return;
  const auto t0 = std::chrono::steady_clock::now();
  const TagOrderResult verdict = check_tag_order(h);
  const double us =
      std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - t0).count();
  rep.m["checker.tag_order_us_per_op"] = us / std::max<double>(1, static_cast<double>(h.txns.size()));
  if (!verdict.ok) rep.failures.push_back("tag-order check failed: " + verdict.explanation);
}

}  // namespace snowkit::suite

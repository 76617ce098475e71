// snowbench: one benchmark for snowkit.
//
// Four fixed-load workloads (workloads.cpp), each run as repetitions with
// fixed operation counts.  A TCP repetition spawns a fresh three-daemon
// fleet (fleet_procs.hpp), warms it up, then measures one open-loop window
// (tcp_rep.cpp); a simulator repetition runs the same traffic engine in
// virtual time (sim_rep.cpp).  Traced runs add the flight recorder on every
// process and a layer replay with microbenchmarks (replay.cpp).  main.cpp
// places the fleet on CPUs, aggregates the repetitions and applies the
// validity gates; run.py builds the package and turns the output into the
// benchmark's result line.  BENCHMARK.md documents the design.
//
// All timing is done from here, around calls into each layer's public
// functions: nothing under src/ or tools/ knows it is being measured.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "audit/merge.hpp"
#include "core/run_workload.hpp"
#include "core/system.hpp"
#include "history/history.hpp"
#include "workload/workload.hpp"

namespace snowkit::suite {

/// One benchmark workload: a protocol on a substrate at a fixed open-loop
/// load.  Every workload shares the fleet shape below.
struct Workload {
  std::string name;
  std::string protocol;
  bool tcp{true};             ///< false: SimRuntime with 50 us - 2 ms uniform hops.
  std::size_t objects{0};
  double zipf_theta{0};
  double read_fraction{0};
  double rate{0};             ///< arrivals/s (virtual seconds on the simulator).
  std::size_t replicas{1};    ///< 2: primary/backup shards with an fdatasync'd WAL.
  std::size_t sim_ops{0};     ///< simulator only: operations per repetition.
};

inline constexpr std::size_t kReaders = 2;
inline constexpr std::size_t kWriters = 2;
inline constexpr std::size_t kShards = 3;
/// Client nodes in the client process; NetRuntime runs one executor each.
inline constexpr std::size_t kClientNodes = kReaders + kWriters;

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

SystemConfig system_config(const Workload& w);
/// Protocol build options: `replicas 2` for a replicated workload (an
/// in-memory WAL on the simulator, files under --wal-dir in the daemons).
BuildOptions build_options(const Workload& w);
/// The workload's protocol and traffic on the simulator at 400 arrivals per
/// virtual second, below every protocol's knee there: its latency is exact
/// per seed, so it gates a protocol's rounds and waits where wall-clock
/// latency is too noisy to.  For tcp-write-zipf it is sim-write-zipf.
Workload virtual_twin(const Workload& w);
/// Open-loop engine options at the workload's rate: one pacing shard, so
/// arrival k is due at start + (k + 1) * interval.
DriverOptions driver_options(const Workload& w, std::size_t ops);

/// Metric values by name (units are fixed by BENCHMARK.json).
using Metrics = std::map<std::string, double>;

/// One repetition's outcome.
struct Rep {
  Metrics m;  ///< whole-window values; the run reports their median over repetitions.
  std::size_t ops{0};                 ///< operations offered in the measured window.
  std::vector<std::string> failures;  ///< validity gates that did not hold.
  std::vector<std::uint8_t> history;  ///< simulator: encoded History (determinism gate).
};

struct RepOptions {
  std::uint64_t seed{1};
  std::size_t window_ops{0};
  std::size_t warmup_ops{0};  ///< TCP only: discarded warm-up at the same rate.
  bool traced{false};         ///< flight recorder on every process, legs computed.
  std::vector<int> daemon_cpus;  ///< TCP only: daemon i runs pinned to daemon_cpus[i].
  std::string work_dir;       ///< scratch space inside the checkout.
  std::string tag;            ///< unique file-name tag of this repetition.
};

/// A TCP fleet that did not come up: a daemon exited or did not listen, or
/// the client did not connect.  The one failure a repetition is retried for
/// (on fresh ports: a probed port can be taken before a daemon binds it).
struct SetupError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Throws SetupError before set-up completes; any later failure is either
/// in Rep::failures or another exception.
Rep run_tcp_rep(const Workload& w, const RepOptions& o);
Rep run_sim_rep(const Workload& w, const RepOptions& o);

/// Layer replay plus microbenchmarks sized from the workload's traffic:
/// per-payload handler and codec cost, framing, version store, WAL.  Writes
/// one span per timed call to `spans_path` (JSON lines).
Metrics run_layer_replay(const Workload& w, std::uint64_t seed, std::size_t ops,
                         const std::string& work_dir, const std::string& spans_path);

/// The payload tags the four workloads send; per-payload metrics cover
/// exactly these (0 where a workload sends none).
const std::vector<std::string>& tracked_payloads();

// --- shared measurement helpers ----------------------------------------------

/// Exact quantile by linear interpolation between order statistics.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);
/// CPU seconds consumed by this whole process.
double process_cpu_s();
std::size_t host_cores();

/// The CPUs the calling thread may run on, ascending.
std::vector<int> allowed_cpus();
/// Restricts the calling thread, and every thread or process it creates
/// afterwards, to `cpu`.  Throws when the kernel refuses.
void pin_to_cpu(int cpu);

/// History-derived metrics over the transactions invoked at or after
/// `from_ns`: rounds and versions per READ, achieved completion rate,
/// protocol-latency mean, median and tail percentiles.
void add_history_metrics(const History& h, TimeNs from_ns, Metrics& m);

/// Sojourn (intended arrival -> completion) percentiles of the driver's
/// window, from its histogram (within ~3 %), and driver.queue_wait_mean_us.
/// Call after add_history_metrics, whose protocol-latency mean it uses.
void add_sojourn_metrics(const WorkloadDriver& d, Metrics& m);

/// Client CPU per operation over the last third of a window's completed
/// operations against the first: per-op cost that grows with run length
/// shows as a ratio above 1.  mark() samples this process's CPU clock at the
/// window's start and as each third completes; call it as often as handy.
class AgingProbe {
 public:
  explicit AgingProbe(std::size_t ops) : ops_(ops) {}

  void mark(std::size_t completed) {
    if (marks_.size() < 4 && completed >= ops_ * marks_.size() / 3) {
      marks_.push_back({process_cpu_s(), completed});
    }
  }

  /// 0 until all four marks are in.
  double ratio() const {
    if (marks_.size() < 4) return 0;
    const auto per_op = [](const Mark& a, const Mark& b) {
      return b.ops > a.ops ? (b.cpu - a.cpu) / static_cast<double>(b.ops - a.ops) : 0.0;
    };
    const double first = per_op(marks_[0], marks_[1]);
    return first > 0 ? per_op(marks_[2], marks_[3]) / first : 0;
  }

 private:
  struct Mark {
    double cpu;
    std::size_t ops;
  };
  std::size_t ops_;
  std::vector<Mark> marks_;
};

/// Per-leg latency over a merged run as leg.* metrics, plus the share of
/// READ latency no leg covers.  Backup replicas count as servers.
void add_leg_metrics(const audit::MergedAudit& merged, Metrics& m);

/// Strict-serializability gate; adds checker.tag_order_us_per_op.
void check_history(const std::string& protocol, const History& h, Rep& rep);

/// Issue lateness against the one-shard schedule: arrival k (1-based) is
/// due at start + k * interval.  Fed by DriverOptions::after_arrival on the
/// pacing executor; locked because the final arrival's hook can still be
/// running when the WorkloadDriver reports done on another thread.
class LatenessProbe {
 public:
  LatenessProbe(Runtime& rt, TimeNs interval) : rt_(rt), interval_(interval) {}

  void arm(TimeNs start) { start_ = start; }

  void on_arrival() {
    const TimeNs now = rt_.now_ns();
    std::lock_guard<std::mutex> lock(mu_);
    const TimeNs due = start_ + static_cast<TimeNs>(++issued_) * interval_;
    late_us_.push_back(now > due ? static_cast<double>(now - due) / 1e3 : 0.0);
  }

  double p99_us() const {
    std::lock_guard<std::mutex> lock(mu_);
    return quantile(late_us_, 0.99);
  }

 private:
  Runtime& rt_;
  const TimeNs interval_;
  TimeNs start_{0};
  mutable std::mutex mu_;
  std::uint64_t issued_{0};
  std::vector<double> late_us_;
};

}  // namespace snowkit::suite

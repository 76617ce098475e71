// snowbench: runs one workload of the snowkit benchmark and prints every
// metric it measured as the last line of stdout (one JSON object).
//
//   snowbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR [--out-dir DIR] [--quick]
//
// --trace 0 measures the end-to-end metrics.  A TCP workload runs 3
// repetitions of S/3 seconds of traffic each, every one on a fresh fleet
// after 1 s of discarded warm-up, then more fleets that only set up, then 3
// simulator repetitions of its virtual_twin for the virt_* metrics; the
// simulator workload repeats fixed 10 000-operation runs until S seconds
// have passed.  Each metric is the median of its whole-window values over
// the repetitions.  Repetition r of seed N uses the r-th draw of a
// SplitMix64 stream seeded with N, so a seed always produces the same inputs.
//
// --trace 1 runs one untraced and one traced repetition (flight recorder on
// every process) of S/4 seconds of traffic each, plus the layer replay and
// its microbenchmarks, and reports the per-layer metrics.
//
// Every repetition must pass the validity gates (strict serializability by
// tag order, achieved arrival rate >= 0.98 x nominal, clean daemon exits
// with no reconnects, no flight-recorder drops, and for the simulator a
// byte-identical history when repetition 1 is re-run), and a TCP run needs
// one CPU per fleet process.  A failed gate counts the repetition's (or the
// run's) operations as failed, sets "correct" to false and makes the exit
// status 1.  run.py builds this binary and maps the output onto the metrics
// BENCHMARK.json declares.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <functional>
#include <string>

#include "common/rng.hpp"
#include "suite.hpp"

namespace snowkit::suite {
namespace {

/// Set-up samples per TCP run (the measured repetitions included).
constexpr int kSetupSamples = 11;

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10};
  int trace{0};
  std::string work_dir;
  std::string out_dir;
  bool quick{false};
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "snowbench: %s\n"
               "usage: snowbench --workload NAME --seed N --seconds S --trace 0|1\n"
               "                 --work-dir DIR [--out-dir DIR] [--quick]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      a.quick = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      a.workload = v;
    } else if (arg == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0' || v.empty()) usage("--seed takes a non-negative integer");
    } else if (arg == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0)) usage("--seconds takes a positive number");
    } else if (arg == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (arg == "--work-dir") {
      a.work_dir = v;
    } else if (arg == "--out-dir") {
      a.out_dir = v;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (a.workload.empty() || a.work_dir.empty()) usage("--workload and --work-dir are required");
  return a;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Runs one repetition in its own scratch directory.  A TCP fleet that does
/// not come up (SetupError: a probed port can be taken before a daemon binds
/// it) gets one retry on fresh ports; any other failure, or a second set-up
/// failure, becomes a failed repetition.
Rep run_rep(const Workload& w, RepOptions o, const std::string& work_root) {
  for (int attempt = 1;; ++attempt) {
    o.work_dir = work_root + "/" + o.tag + "-" + std::to_string(attempt);
    std::filesystem::create_directories(o.work_dir);
    std::string error;
    bool retry = false;
    try {
      Rep rep = w.tcp ? run_tcp_rep(w, o) : run_sim_rep(w, o);
      std::filesystem::remove_all(o.work_dir);
      return rep;
    } catch (const SetupError& e) {
      error = e.what();
      retry = attempt == 1;
    } catch (const std::exception& e) {
      error = e.what();
    }
    std::fprintf(stderr, "snowbench: %s %s attempt %d: %s\n", w.name.c_str(), o.tag.c_str(),
                 attempt, error.c_str());
    std::error_code ec;
    std::filesystem::remove_all(o.work_dir, ec);
    if (retry) continue;
    Rep failed;
    failed.ops = o.window_ops;
    failed.failures.push_back(error);
    return failed;
  }
}

/// The run's value of every metric: its median over the repetitions.
Metrics aggregate(const std::vector<Rep>& reps) {
  std::map<std::string, std::vector<double>> values;
  for (const Rep& r : reps) {
    for (const auto& [k, v] : r.m) values[k].push_back(v);
  }
  Metrics out;
  for (auto& [k, v] : values) out[k] = median(std::move(v));
  return out;
}

void print_rep(const Workload& w, const std::string& tag, const Rep& r) {
  const auto get = [&](const char* k) {
    const auto it = r.m.find(k);
    return it == r.m.end() ? 0.0 : it->second;
  };
  std::printf("%-22s %-8s ops=%-6zu setup_s=%.4f cpu_us/op=%.1f read_p50_us=%.1f "
              "sojourn_p50_us=%.1f B/op=%.0f %s\n",
              w.name.c_str(), tag.c_str(), r.ops, get("setup_s"), get("diag.cpu_us_per_op"),
              get("diag.read_p50_us"), get("diag.sojourn_p50_us"), get("wire_bytes_per_op"),
              r.failures.empty() ? "ok" : ("FAILED: " + r.failures.front()).c_str());
  std::fflush(stdout);
}

int run(const Args& a) {
  const Workload* wp = find_workload(a.workload);
  if (wp == nullptr) {
    std::string names;
    for (const Workload& w : workloads()) names += " " + w.name;
    usage(("unknown workload '" + a.workload + "'; known:" + names).c_str());
  }
  const Workload& w = *wp;
  std::filesystem::create_directories(a.work_dir);

  SplitMix64 seeds(a.seed);
  std::vector<Rep> reps;
  std::vector<Rep> virtual_reps;  // a TCP workload's virtual_twin, for the virt_* metrics
  std::vector<std::string> failures;
  Metrics out;
  const auto started = std::chrono::steady_clock::now();
  const auto elapsed_s = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();
  };
  const auto ops_for = [&](double seconds) {
    return std::max<std::size_t>(1, static_cast<std::size_t>(w.rate * seconds));
  };
  RepOptions o;
  o.warmup_ops = ops_for(a.quick ? 0.25 : 1.0);

  if (w.tcp) {
    // One CPU per fleet process: daemon i on the i-th CPU this process may
    // use, the client process (4 client nodes, one executor each) on the
    // next.  Left to the scheduler, thread placement changes from run to
    // run, and CPU per op and latency with it: over 10 runs on a 4-vCPU KVM
    // guest their spread (q3 - q1) / median was 0.3-0.5 unpinned and
    // 0.07-0.17 pinned.
    const std::vector<int> cpus = allowed_cpus();
    if (cpus.size() < kShards + 1) {
      failures.push_back("the fleet needs " + std::to_string(kShards + 1) +
                         " CPUs, one per process; this host allows " +
                         std::to_string(cpus.size()));
    } else {
      o.daemon_cpus.assign(cpus.begin(), cpus.begin() + kShards);
      pin_to_cpu(cpus[kShards]);
    }
  }

  if (a.trace == 0) {
    if (w.tcp) {
      const int count = a.quick ? 1 : 3;
      o.window_ops = ops_for(a.quick ? 2.0 : a.seconds / count);
      for (int r = 0; r < count; ++r) {
        o.seed = seeds.next();
        o.tag = "rep" + std::to_string(r + 1);
        reps.push_back(run_rep(w, o, a.work_dir));
        print_rep(w, o.tag, reps.back());
      }
      // Set-up is cheap and noisy next to the windows: take more samples
      // of it from fleets that only start, connect and shut down.
      o.window_ops = 0;
      for (int r = count; r < (a.quick ? 1 : kSetupSamples); ++r) {
        o.tag = "setup" + std::to_string(r + 1);
        reps.push_back(run_rep(w, o, a.work_dir));
        print_rep(w, o.tag, reps.back());
      }
      const Workload twin = virtual_twin(w);
      RepOptions v;
      v.window_ops = a.quick ? twin.sim_ops / 5 : twin.sim_ops;
      for (int r = 0; r < count; ++r) {
        v.seed = seeds.next();
        v.tag = "virtual" + std::to_string(r + 1);
        virtual_reps.push_back(run_rep(twin, v, a.work_dir));
        print_rep(twin, v.tag, virtual_reps.back());
      }
    } else {
      o.window_ops = a.quick ? w.sim_ops / 5 : w.sim_ops;
      RepOptions first;
      while (reps.empty() || (!a.quick && (reps.size() < 3 || elapsed_s() < a.seconds))) {
        o.seed = seeds.next();
        o.tag = "rep" + std::to_string(reps.size() + 1);
        if (reps.empty()) first = o;
        reps.push_back(run_rep(w, o, a.work_dir));
        print_rep(w, o.tag, reps.back());
      }
      // Determinism gate: repetition 1 again must reproduce its history
      // byte for byte.
      first.tag = "rep1-again";
      const Rep again = run_rep(w, first, a.work_dir);
      if (again.history != reps.front().history) {
        reps.front().failures.push_back("re-running repetition 1 changed its history");
      }
    }
    out = aggregate(reps);
    for (const auto& [k, value] : aggregate(virtual_reps)) {
      if (k.rfind("virt_", 0) == 0) out[k] = value;
    }
  } else {
    o.seed = seeds.next();
    o.window_ops = w.tcp ? ops_for(a.quick ? 1.0 : std::max(1.0, a.seconds / 4))
                         : (a.quick ? w.sim_ops / 5 : w.sim_ops);
    o.tag = "untraced";
    reps.push_back(run_rep(w, o, a.work_dir));
    print_rep(w, o.tag, reps.back());
    o.tag = "traced";
    o.traced = true;
    reps.push_back(run_rep(w, o, a.work_dir));
    print_rep(w, o.tag, reps.back());

    out = aggregate({reps[0]});
    for (const auto& [k, v] : reps[1].m) {
      if (k.rfind("leg.", 0) == 0) out[k] = v;
    }
    const double untraced = out["diag.cpu_us_per_op"];
    out["trace.overhead_frac"] = untraced > 0 ? reps[1].m["diag.cpu_us_per_op"] / untraced : 0;

    const std::string trace_dir = (a.out_dir.empty() ? a.work_dir : a.out_dir) + "/trace";
    std::filesystem::create_directories(trace_dir);
    const std::string spans = trace_dir + "/" + w.name + ".spans.jsonl";
    try {
      for (const auto& [k, v] :
           run_layer_replay(w, o.seed, std::min<std::size_t>(o.window_ops, 3000), a.work_dir, spans)) {
        out[k] = v;
      }
      std::printf("%-22s replay   spans -> %s\n", w.name.c_str(), spans.c_str());
    } catch (const std::exception& e) {
      reps[1].failures.push_back(std::string("layer replay: ") + e.what());
    }
  }

  // A run-level gate (the CPU count) fails every operation of the run.
  const bool run_failed = !failures.empty();
  std::size_t attempted = 0, failed = 0;
  for (const std::vector<Rep>* group : {&reps, &virtual_reps}) {
    for (const Rep& r : *group) {
      attempted += r.ops;
      if (run_failed || !r.failures.empty()) failed += r.ops;
      failures.insert(failures.end(), r.failures.begin(), r.failures.end());
    }
  }
  const bool correct = failures.empty();

  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"repetitions\": " + std::to_string(reps.size()) +
                     ", \"host_cores\": " + std::to_string(host_cores()) +
                     ", \"elapsed_s\": " + std::to_string(elapsed_s()) + ", \"failures\": [";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    json += (i ? ", " : "") + json_string(failures[i]);
  }
  json += "], \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [k, v] : out) {
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof buf, "%.17g", v);
    } else {
      std::snprintf(buf, sizeof buf, "null");
    }
    json += (first ? "" : ", ") + json_string(k) + ": " + buf;
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace snowkit::suite

int main(int argc, char** argv) {
  try {
    return snowkit::suite::run(snowkit::suite::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "snowbench: %s\n", e.what());
    return 2;
  }
}

#!/usr/bin/env python3
"""snowbench entry point: build the benchmark, run one workload, report.

Run from the root of a checkout:

  python3 snowbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      Builds snowbench/ (CMake, Release) into $CARGO_TARGET_DIR or
      .bench_build, runs the workload and prints, as the last line of
      stdout, {"correct", "attempted", "failed", "metrics"} with the
      end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer
      metrics (--trace 1).  Exit status 0 only when every validity gate held.
      --seconds defaults to BENCHMARK.json's run_seconds.  --quick shrinks
      the run to a smoke test.  Each run's full record, every metric the
      binary measured included, goes to DIR/runs/ (--out-dir DIR, default
      <build dir>/out), and a traced run's span files to DIR/trace/.

  python3 snowbench/run.py --calibrate --runs 10 --out-dir DIR [--seed-base B]
      Runs every workload RUNS times with seeds B..B+RUNS-1 (B = 1),
      interleaving the workloads, writes the records and DIR/summary.json,
      and prints each end-to-end metric's median, quartiles and spread
      ((q3 - q1) / median) against its bound.

  python3 snowbench/run.py --compare BASE_DIR NEW_DIR
      Compares two calibration summaries metric by metric and classifies
      each as improved, regressed, unchanged or unresolved (a spread wider
      than the metric's bound) against BENCHMARK.json.
"""
import argparse
import fcntl
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_root():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def child_env():
    """The environment for the build and the benchmark: temporary files
    (the compiler's among them) stay inside the build directory."""
    tmp = os.path.join(build_root(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures and builds the package (a no-op when up to date)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "system.hpp")):
        raise RuntimeError("snowkit sources (src/) not found next to snowbench/")
    out = os.path.join(build_root(), "snowbench")
    os.makedirs(out, exist_ok=True)
    # One build at a time per checkout, even if runs overlap.
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True, env=child_env())
        subprocess.run(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)],
                       stdout=sys.stderr, check=True, env=child_env())
    return os.path.join(out, "snowbench")


def run_binary(binary, args, work_dir):
    """Runs snowbench in its own process group; returns (exit code, lines)."""
    proc = subprocess.Popen([binary] + args + ["--work-dir", work_dir], stdout=subprocess.PIPE,
                            text=True, start_new_session=True, env=child_env())
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"snowbench did not finish within {RUN_TIMEOUT_S} s")
    finally:
        # Daemons the binary spawned share its process group; wait until
        # none is left (they die with it, but exit asynchronously).
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        shutil.rmtree(work_dir, ignore_errors=True)
    return proc.returncode, out.splitlines()


def run_once(workload, seed, seconds, trace, quick=False, out_dir=None):
    """One benchmark run; returns (exit code, result line dict)."""
    bench = load_benchmark()
    binary = build()
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    if quick:
        args.append("--quick")
    out_dir = out_dir or os.path.join(build_root(), "out")
    os.makedirs(out_dir, exist_ok=True)
    args += ["--out-dir", out_dir]
    work_dir = os.path.join(build_root(), "work", f"{workload}-{os.getpid()}")
    code, lines = run_binary(binary, args, work_dir)
    for line in lines[:-1]:
        print(line)
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"snowbench exited {code} without a result")
    raw = json.loads(lines[-1])
    wanted = bench["end_to_end"] if trace == 0 else bench["per_layer"]
    metrics = {}
    for spec in wanted:
        value = raw["metrics"].get(spec["name"])
        if value is None:
            raise RuntimeError(f"snowbench did not report {spec['name']}")
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    for failure in raw["failures"]:
        log(f"validity gate: {failure}")
    result = {"correct": raw["correct"], "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    record_dir = os.path.join(out_dir, "runs")
    os.makedirs(record_dir, exist_ok=True)
    with open(os.path.join(record_dir, f"{workload}.seed{seed}.trace{trace}.json"), "w") as f:
        json.dump({"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
                   "result": result, "raw": raw}, f, indent=1)
    return code, result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(records):
    """{workload: {metric: {median, q1, q3, spread, values}}} over run records."""
    out = {}
    for rec in records:
        for name, m in rec["result"]["metrics"].items():
            out.setdefault(rec["workload"], {}).setdefault(name, []).append(m["value"])
    summary = {}
    for workload, metrics in out.items():
        summary[workload] = {}
        for name, values in metrics.items():
            q1, q2, q3 = quartiles(values)
            summary[workload][name] = {"median": q2, "q1": q1, "q3": q3,
                                       "spread": (q3 - q1) / q2 if q2 else 0.0,
                                       "values": values}
    return summary


def calibrate(args):
    bench = load_benchmark()
    records = []
    for seed in range(args.seed_base, args.seed_base + args.runs):
        for workload in (w["name"] for w in bench["workloads"]):
            code, result = run_once(workload, seed, args.seconds or bench["run_seconds"], 0,
                                       out_dir=args.out_dir)
            records.append({"workload": workload, "seed": seed, "result": result})
            log(f"calibrate: {workload} seed {seed} exit {code}")
    summary = summarize(records)
    with open(os.path.join(args.out_dir, "summary.json"), "w") as f:
        json.dump(summary, f, indent=1)
    bounds = {m["name"]: m.get("bound", 0) for m in bench["end_to_end"]}
    print(f"{'workload':22} {'metric':20} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    for workload, metrics in summary.items():
        for name, s in metrics.items():
            flag = "" if name == "setup_s" or s["spread"] <= bounds[name] / 3 else "  > bound/3"
            print(f"{workload:22} {name:20} {s['median']:12.6g} {s['q1']:12.6g} "
                  f"{s['q3']:12.6g} {s['spread']:7.3f} {bounds[name]:6.3f}{flag}")
    return 0


def compare(base_dir, new_dir):
    """Classifies every (workload, metric) of NEW against BASE."""
    bench = load_benchmark()
    specs = {m["name"]: m for m in bench["end_to_end"]}
    with open(os.path.join(base_dir, "summary.json")) as f:
        base = json.load(f)
    with open(os.path.join(new_dir, "summary.json")) as f:
        new = json.load(f)
    print(f"{'workload':22} {'metric':20} {'base [q1, q3]':>32} {'new [q1, q3]':>32}  verdict")
    regressed = False
    for workload in sorted(set(base) & set(new)):
        for name, spec in specs.items():
            if name not in base[workload] or name not in new[workload]:
                continue
            b, n = base[workload][name], new[workload][name]
            sign = 1 if spec["better"] == "lower" else -1
            worse = sign * (n["median"] - b["median"]) / b["median"] if b["median"] else 0.0
            better_everywhere = all(sign * (x - y) < 0 for x in n["values"] for y in b["values"])
            if max(b["spread"], n["spread"]) > spec["bound"] and not better_everywhere:
                verdict = "unresolved"
            elif worse > spec["bound"]:
                verdict = "regressed"
                regressed = True
            elif -worse > spec["bound"]:
                verdict = "improved"
            else:
                verdict = "unchanged"
            base_s = f"{b['median']:.5g} [{b['q1']:.5g}, {b['q3']:.5g}]"
            new_s = f"{n['median']:.5g} [{n['q1']:.5g}, {n['q3']:.5g}]"
            print(f"{workload:22} {name:20} {base_s:>32} {new_s:>32}  {verdict} ({worse:+.3f} worse)")
    return 1 if regressed else 0


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true")
    p.add_argument("--out-dir")
    p.add_argument("--calibrate", action="store_true")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed-base", type=int, default=1)
    p.add_argument("--compare", nargs=2, metavar=("BASE_DIR", "NEW_DIR"))
    args = p.parse_args()
    try:
        if args.compare:
            return compare(*args.compare)
        if args.calibrate:
            if not args.out_dir:
                p.error("--calibrate needs --out-dir")
            os.makedirs(args.out_dir, exist_ok=True)
            return calibrate(args)
        if not args.workload:
            p.error("--workload is required")
        seconds = args.seconds or load_benchmark()["run_seconds"]
        code, result = run_once(args.workload, args.seed, seconds, args.trace, args.quick,
                                   args.out_dir)
        print(json.dumps(result))
        return 0 if code == 0 and result["correct"] else 1
    except (RuntimeError, OSError, subprocess.CalledProcessError, ValueError, KeyError) as e:
        log(f"snowbench: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())

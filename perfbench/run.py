#!/usr/bin/env python3
"""One-command benchmark of the library and the query service.

Builds the perfbench binary from the checkout (into .bench_build/), runs the
workloads listed in BENCHMARK.json, each in its own process, checks every
answer, and prints every metric by name with its unit.

  python3 perfbench/run.py                      # all workloads, end-to-end
  python3 perfbench/run.py --trace 1            # all workloads, per layer
  python3 perfbench/run.py --workload serve_warm --seed 3 --seconds 10 \\
      --trace 0                                 # one run; JSON last line
  python3 perfbench/run.py --out results.jsonl  # also append stamped records

With --workload, the last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; the exit code is 0 only when every
answer was correct. --self_test perturbs one answer, so the run must fail.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "cmake"
BINARY = BUILD_DIR / "perfbench"

sys.path.insert(0, str(BENCH_DIR))
import layer_report  # noqa: E402


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures once and builds the binary; raises on failure."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(BUILD_DIR), "-j", jobs, "--target",
         "perfbench"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def run_binary(workload, seed, seconds, trace_dir=None, self_test=False):
    cmd = [str(BINARY), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}"]
    if trace_dir is not None:
        cmd.append(f"--trace_dir={trace_dir}")
    if self_test:
        cmd.append("--self_test")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() or "unknown"


def stamp(result):
    """What must match before two result sets may be compared."""
    return {"nproc": os.cpu_count(),
            "build_type": result["build"]["build_type"],
            "ctsdd_trace": result["build"]["ctsdd_trace"],
            "compiler": result["build"]["compiler"],
            "commit": git_commit()}


def run_one(bench, workload, seed, seconds, traced, self_test):
    """Runs one workload; returns (record, metric units)."""
    if not traced:
        result = run_binary(workload, seed, seconds, self_test=self_test)
        metrics = result["metrics"]
        kind = "end_to_end"
        checked = [result]
    else:
        # The untraced twin gives the tracing overhead.
        plain = run_binary(workload, seed, seconds, self_test=self_test)
        trace_dir = ROOT / ".bench_build" / "trace" / f"{workload}-{seed}"
        trace_dir.mkdir(parents=True, exist_ok=True)
        result = run_binary(workload, seed, seconds, trace_dir=trace_dir,
                            self_test=self_test)
        with open(trace_dir / "result.json", "w") as f:
            json.dump(result, f)
        metrics = layer_report.compute(
            layer_report.load_events(trace_dir / "trace.json"),
            result["counters"], plain["metrics"]["ops_per_s"],
            result["metrics"]["ops_per_s"])
        with open(trace_dir / "layers.json", "w") as f:
            json.dump(metrics, f, indent=1, sort_keys=True)
        kind = "per_layer"
        checked = [plain, result]
    units = {m["name"]: m["unit"] for m in bench[kind]}
    missing = layer_report.missing_metrics(metrics, bench, kind)
    if missing:
        raise RuntimeError(f"{workload}: metrics missing: {missing}")
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(traced),
        "correct": all(r["wrong_answers"] == 0 for r in checked),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: metrics[name] for name in units},
        "stamp": stamp(result),
    }
    return record, units


def main():
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names,
                        help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self_test", action="store_true",
                        help="perturb one answer; the run must then fail")
    parser.add_argument("--out", help="append stamped records (JSON lines)")
    args = parser.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 2

    all_correct = True
    for workload in [args.workload] if args.workload else names:
        try:
            record, units = run_one(bench, workload, args.seed, args.seconds,
                                    args.trace == 1, args.self_test)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
            log(f"{workload}: {e}")
            return 2
        all_correct &= record["correct"]
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps(record, sort_keys=True) + "\n")
        if args.workload:
            print(json.dumps({
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {n: {"value": v, "unit": units[n]}
                            for n, v in record["metrics"].items()},
            }))
        else:
            print(f"== {workload} (seed {args.seed}): "
                  f"{record['attempted']} attempted, {record['failed']} failed,"
                  f" correct={record['correct']}")
            for name, value in record["metrics"].items():
                print(f"  {name:32s} {value:16.6g} {units[name]}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())

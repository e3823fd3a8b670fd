#!/usr/bin/env python3
"""Build and run the freqdedup benchmark; see perfbench/README.md.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--detail PATH]

Builds perfbench (Release) from perfbench/ and src/ into .bench_build/, runs
each selected workload in its own process inside a fresh directory under
.bench_run/ (removed afterwards, also when a check fails), checks the
output against BENCHMARK.json and prints one JSON line per workload:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics and writes the run's
spans to .bench_out/. --detail writes every workload's full result
(both metric sets and the workload's make-up) to PATH as JSON.

Exit status is 0 only when every workload ran, passed its output checks
and printed every metric BENCHMARK.json declares for the mode.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
RUN_DIR = ROOT / ".bench_run"
OUT_DIR = ROOT / ".bench_out"
BINARY = BUILD_DIR / "perfbench"
# A workload must end well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(path.read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}")
    for key in ("workloads", "end_to_end", "per_layer", "run_seconds"):
        if key not in spec:
            raise BenchError(f"BENCHMARK.json has no '{key}'")
    return spec


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    cache = BUILD_DIR / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}" not in cache.read_text():
        shutil.rmtree(BUILD_DIR)  # configured for another checkout
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not cache.exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                  "--target", "perfbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(step))


def run_workload(name, seed, seconds, trace):
    """Runs one workload in a fresh directory; returns its parsed result."""
    RUN_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=RUN_DIR)
    command = [str(BINARY), "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        command += ["--spans", str(OUT_DIR / f"spans-{name}-seed{seed}.json")]
    try:
        proc = subprocess.run(command, cwd=workdir, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            RUN_DIR.rmdir()
        except OSError:
            pass
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise BenchError(f"{name} exited with status {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except ValueError:
        raise BenchError(f"{name} printed no result line")


def check_output(spec, results, trace):
    """Checks every workload's result against BENCHMARK.json; returns the
    list of gaps (empty when the output is complete)."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    kind = "per_layer" if trace else "end_to_end"
    gaps = []
    for workload in spec["workloads"]:
        name = workload["name"]
        if name not in results:
            gaps.append(f"workload {name} is missing")
            continue
        result = results[name]
        for key in ("attempted", "failed"):
            if not isinstance(result.get(key), int) or isinstance(result.get(key), bool):
                gaps.append(f"{name}: '{key}' count is missing")
        if isinstance(result.get("attempted"), int) and result["attempted"] < 1:
            gaps.append(f"{name}: attempted no operation")
        metrics = result.get(kind, {})
        for metric in declared:
            m = metrics.get(metric["name"])
            if m is None:
                gaps.append(f"{name}: metric {metric['name']} is missing")
                continue
            if m.get("unit") != metric["unit"]:
                gaps.append(f"{name}: metric {metric['name']} has unit "
                            f"{m.get('unit')!r}, BENCHMARK.json says {metric['unit']!r}")
            value = m.get("value")
            if not isinstance(value, (int, float)) or isinstance(value, bool) \
                    or not math.isfinite(value):
                gaps.append(f"{name}: metric {metric['name']} has no finite value")
        undeclared = sorted(set(metrics) - {m["name"] for m in declared})
        for extra in undeclared:
            gaps.append(f"{name}: metric {extra} is not declared in BENCHMARK.json")
    return gaps


def contract_line(result, trace):
    kind = "per_layer" if trace else "end_to_end"
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": result[kind]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--detail", default=None)
    args = parser.parse_args()

    # On SIGTERM the run still removes its run directory and stops the
    # workload process (subprocess.run kills it on the way out).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if args.workload == "all":
            selected = names
        elif args.workload in names:
            selected = [args.workload]
        else:
            raise BenchError(f"unknown workload '{args.workload}' (have {', '.join(names)})")
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        build()
        results = {name: run_workload(name, args.seed, seconds, bool(args.trace))
                   for name in selected}
        spec_selected = dict(spec, workloads=[w for w in spec["workloads"]
                                              if w["name"] in selected])
        gaps = check_output(spec_selected, results, bool(args.trace))
        if gaps:
            raise BenchError("output check failed:\n  " + "\n  ".join(gaps))
    except BenchError as e:
        log(str(e))
        return 1
    if args.detail:
        Path(args.detail).write_text(json.dumps(results, indent=1) + "\n")
    for name in selected:
        print(json.dumps(contract_line(results[name], bool(args.trace))), flush=True)
    return 0 if all(results[n]["correct"] for n in selected) else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run-to-run spread of the freqdedup benchmark; see perfbench/README.md.

    python3 perfbench/spread.py run --runs N [--first-seed S] [--trace 0|1]
                                    [--workload NAME ...] --out SET.json
    python3 perfbench/spread.py report SET.json
    python3 perfbench/spread.py compare BASE.json OTHER.json

`run` runs each workload N times through perfbench/run.py, seed S, S+1, ...,
saves every full result to SET.json and prints the report. `report` prints,
for each (workload, end-to-end metric), the median, the quartiles and the
quartile spread (Q3 - Q1) / median, also as a share of the metric's bound in
BENCHMARK.json; for a traced set (--trace 1) also each per-layer metric's
median. `compare` prints each median's change from BASE to OTHER
against the bound, signed so that positive is worse; a metric whose spread
exceeds its bound in either set is marked unresolved. Quartiles are
statistics.quantiles(values, n=4).
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_set(args):
    spec = load_spec()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    runs = {name: [] for name in workloads}
    for name in workloads:
        for i in range(args.runs):
            seed = args.first_seed + i
            OUT_DIR.mkdir(exist_ok=True)
            with tempfile.NamedTemporaryFile(suffix=".json", dir=OUT_DIR) as detail:
                proc = subprocess.run(
                    [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                     "--seed", str(seed), "--trace", str(args.trace),
                     "--detail", detail.name],
                    cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                    text=True)
                if proc.returncode != 0:
                    sys.stderr.write(proc.stderr)
                    sys.exit(f"spread: {name} seed {seed} failed")
                result = json.loads(Path(detail.name).read_text())[name]
            result["seed"] = seed
            runs[name].append(result)
            e2e = result["end_to_end"]
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m}={e2e[m]['value']:.4g}" for m in sorted(e2e)), flush=True)
    data = {"trace": args.trace, "runs": runs}
    Path(args.out).write_text(json.dumps(data, indent=1) + "\n")
    report(data, spec)


def stats(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def failed_share(results):
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 0.0


def report(data, spec):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    print(f"\n{'workload':16} {'metric':15} {'n':>3} {'median':>11} {'Q1':>11} "
          f"{'Q3':>11} {'spread':>7} {'/bound':>7}")
    for name, results in data["runs"].items():
        for metric, m in bounds.items():
            values = [r["end_to_end"][metric]["value"] for r in results]
            if len(values) < 2:
                continue
            q1, q2, q3, spread = stats(values)
            share = spread / m["bound"]
            flag = "  UNRESOLVED" if spread > m["bound"] else ""
            if metric == "setup_s":
                flag += "  (spread not gated)"
            print(f"{name:16} {metric:15} {len(values):3d} {q2:11.4f} {q1:11.4f} "
                  f"{q3:11.4f} {spread:7.2%} {share:7.2f}{flag}")
        print(f"{name:16} failed share {failed_share(results):.6f} of "
              f"{sum(r['attempted'] for r in results)} attempted")
    if data["trace"]:
        print(f"\n{'workload':16} {'per-layer metric (median of traced runs)':48} {'value':>14}")
        for name, results in data["runs"].items():
            for metric in spec["per_layer"]:
                values = [r["per_layer"][metric["name"]]["value"] for r in results]
                value = statistics.median(values)
                if value:
                    print(f"{name:16} {metric['name']:48} {value:14.4f} {metric['unit']}")


def compare(base, other, spec):
    print(f"{'workload':16} {'metric':15} {'base':>11} {'other':>11} "
          f"{'worse by':>9} {'bound':>6}  verdict")
    ok = True
    for name in base["runs"]:
        if name not in other["runs"]:
            continue
        b_runs, o_runs = base["runs"][name], other["runs"][name]
        for m in spec["end_to_end"]:
            metric, bound = m["name"], m["bound"]
            bv = [r["end_to_end"][metric]["value"] for r in b_runs]
            ov = [r["end_to_end"][metric]["value"] for r in o_runs]
            _, b_med, _, b_spread = stats(bv)
            _, o_med, _, o_spread = stats(ov)
            change = (o_med - b_med) / b_med
            worse = change if m["better"] == "lower" else -change
            if worse > bound:
                verdict = "WORSE than bound"
                ok = False
            elif max(b_spread, o_spread) > bound:
                verdict = "unresolved (spread above bound)"
            else:
                verdict = "within bound"
            print(f"{name:16} {metric:15} {b_med:11.4f} {o_med:11.4f} "
                  f"{worse:9.2%} {bound:6.2f}  {verdict}")
        bf, of = failed_share(b_runs), failed_share(o_runs)
        print(f"{name:16} failed share {bf:.6f} vs {of:.6f}"
              f"{'' if bf == of else '  DIFFERENT'}")
        ok = ok and bf == of
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("--runs", type=int, default=10)
    p_run.add_argument("--first-seed", type=int, default=1)
    p_run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p_run.add_argument("--workload", action="append")
    p_run.add_argument("--out", required=True)
    p_report = sub.add_parser("report")
    p_report.add_argument("set")
    p_cmp = sub.add_parser("compare")
    p_cmp.add_argument("base")
    p_cmp.add_argument("other")
    args = parser.parse_args()
    spec = load_spec()
    if args.mode == "run":
        run_set(args)
    elif args.mode == "report":
        report(json.loads(Path(args.set).read_text()), spec)
    else:
        ok = compare(json.loads(Path(args.base).read_text()),
                     json.loads(Path(args.other).read_text()), spec)
        sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""A/A check of the repo benchmark: what the driver does, on one binary.

Runs the command of BENCHMARK.json `--sets` times over `--seeds` seeds on
every workload (runs interleaved round-robin across the workloads, so a noisy
phase of the host taxes every workload a little instead of one a lot) and
fails unless, for every workload and end-to-end metric,

* the spread of each set — the distance between the first and third quartile
  of its values, `statistics.quantiles(values, n=4)`, as a share of their
  median — is within the metric's bound (`setup_s` excepted),
* a later set's median is not worse than the first set's by more than the
  bound, and
* every virtual-time metric repeats bit for bit for the same seed.

A spread above a third of its bound is flagged `wide`: the benchmark aims
below that.  Everything measured goes to benchmark/out/selfcheck.json; the
recorded noise floor in benchmark/README.md is a copy of its summary.

Run from the repo root:  python3 benchmark/selfcheck.py [--sets 2] [--seeds 10]
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    done = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    took = time.monotonic() - started
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit code {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}, took


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--workload", action="append", help="default: every workload")
    opts = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = opts.seconds or bench["run_seconds"]
    workloads = opts.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    seeds = range(opts.first_seed, opts.first_seed + opts.seeds)

    # values[set][workload][metric] = one value per seed, in seed order
    values = [{w: {m["name"]: [] for m in metrics} for w in workloads} for _ in range(opts.sets)]
    slowest = 0.0
    for s in range(opts.sets):
        for seed in seeds:
            for w in workloads:
                got, took = run_once(bench["command"], w, seed, seconds, 0)
                slowest = max(slowest, took)
                for m in metrics:
                    values[s][w][m["name"]].append(got[m["name"]])
                print(f"set {s + 1} seed {seed} {w}: {took:.1f} s, "
                      f"norm_tx_per_s {got['norm_tx_per_s']:.0f}", flush=True)

    failures, rows = [], []
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sign = -1.0 if m["better"] == "higher" else 1.0
            sets = [values[s][w][name] for s in range(opts.sets)]
            medians = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            shifts = [sign * (md - medians[0]) / medians[0] for md in medians[1:]]
            row = {"workload": w, "metric": name, "bound": bound, "medians": medians,
                   "spreads": spreads, "worse_by": shifts}
            rows.append(row)
            flags = []
            if name != "setup_s" and max(spreads) > bound:
                flags.append("SPREAD")
            if any(shift > bound for shift in shifts):
                flags.append("SHIFT")
            if name.endswith("_vticks") and any(v != sets[0] for v in sets[1:]):
                flags.append("NOT-EXACT")
            if flags:
                failures.append(f"{w} {name}: {' '.join(flags)}")
            elif name != "setup_s" and max(spreads) > bound / 3:
                flags.append("wide")
            print(f"{w:14} {name:17} median {medians[0]:14.6g}  spread "
                  + " ".join(f"{x:6.2%}" for x in spreads)
                  + "  worse by " + " ".join(f"{x:+6.2%}" for x in shifts)
                  + f"  bound {bound:.0%} {' '.join(flags)}")

    out = ROOT / "benchmark" / "out"
    out.mkdir(parents=True, exist_ok=True)
    (out / "selfcheck.json").write_text(json.dumps(
        {"seconds": seconds, "seeds": list(seeds), "sets": opts.sets,
         "slowest_run_s": slowest, "summary": rows, "values": values}, indent=1))
    print(f"slowest run {slowest:.1f} s; details in benchmark/out/selfcheck.json")
    if failures:
        sys.exit("selfcheck FAILED:\n  " + "\n  ".join(failures))
    print("selfcheck ok")


if __name__ == "__main__":
    main()

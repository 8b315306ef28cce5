#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

Runs the benchmark command once per seed on one workload and prints, for
every metric, the median, the quartiles (statistics.quantiles, n=4) and
the spread: the distance between the quartiles as a share of the median,
beside the metric's bound. Run it from the repository root:

    python3 perfbench/steady.py --workload or1200_t1 --seeds 1-10
    python3 perfbench/steady.py --workload serve_small --seeds 1-5 --trace 1

Exits non-zero when a run fails, reports correct=false, or (for --trace 0)
any spread exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--seconds", type=int, help="default: run_seconds")
    ap.add_argument("--log", help="append each run's result line here")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end" if args.trace == "0" else "per_layer"]

    values = {m["name"]: [] for m in metrics}
    ok = True
    for seed in parse_seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            print(f"seed {seed}: exit {run.returncode}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        if args.log:
            with open(args.log, "a") as f:
                f.write(json.dumps({"workload": args.workload, "seed": seed,
                                    "trace": args.trace, "stdout": lines[:-1],
                                    **result}) + "\n")
        if not result["correct"] or result["failed"]:
            ok = False
            print(f"seed {seed}: correct={result['correct']} failed={result['failed']}")
        for name, v in result["metrics"].items():
            values.setdefault(name, []).append(v["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    print(f"\n{'metric':<24} {'n':>3} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}")
    for m in metrics:
        vs = values.get(m["name"], [])
        if len(vs) < 2:
            print(f"{m['name']:<24} {len(vs):>3}")
            continue
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = m.get("bound")
        flag = ""
        if bound is not None:
            flag = f"{bound:>6}"
            if spread > bound:
                flag += "  OVER"
                ok = False
            elif spread > bound / 3:
                flag += "  (over a third)"
        print(f"{m['name']:<24} {len(vs):>3} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
              f"{spread:>8.4f} {flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

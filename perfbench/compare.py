"""Compare the end-to-end metrics of two checkouts, or measure one.

    python3 perfbench/compare.py --workload audit --seeds 1-10 \\
        --base /path/to/parent [--head /path/to/change]

Each checkout must hold its own ``perfbench/run.py`` and ``src``.  For each
seed the two sides run back to back, and which side runs first alternates
from seed to seed, so slow drift of the machine falls on both sides alike.
For every metric the script prints each side's median and quartiles over
the seeds, its spread (quartile distance over median) and, with --head, a
verdict by the rule in README.md:

  worse       head median worse than base median by more than the bound
  unresolved  the spread of either side is wider than the bound, unless
              every head run beats every base run
  better      head beats base in at least 9 of 10 seeds and the medians
              differ by more than base's quartile distance
  same        otherwise

The bounds come from the BENCHMARK.json next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def measure(checkout, workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=checkout, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{checkout} seed {seed}: wrong verdicts\n"
                         f"{proc.stdout}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def verdict(base, head, bound, lower_is_better):
    sign = 1 if lower_is_better else -1
    bmed, bq1, bq3, bspread = summary(base)
    hmed, _, _, hspread = summary(head)
    if sign * (hmed - bmed) > bound * bmed:
        return "worse"
    wins = sum(sign * (h - b) < 0 for b, h in zip(base, head))
    if max(bspread, hspread) > bound:
        all_better = all(sign * (h - b) < 0 for h in head for b in base)
        return "better" if all_better else "unresolved"
    if wins >= 0.9 * len(base) and sign * (bmed - hmed) > bq3 - bq1:
        return "better"
    return "same"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--base", required=True)
    ap.add_argument("--head")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--out", help="also write every run's metrics here")
    args = ap.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    sides = ["base"] + (["head"] if args.head else [])
    runs = {side: [] for side in sides}
    for i, seed in enumerate(args.seeds):
        order = sides if i % 2 == 0 else sides[::-1]
        for side in order:
            runs[side].append(measure(getattr(args, side), args.workload,
                                      seed, seconds))
        print(f"seed {seed}: " + "; ".join(
            f"{side} " + " ".join(f"{k}={v:.5g}" for k, v in runs[side][-1].items())
            for side in sides), flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"workload": args.workload, "seeds": args.seeds,
                       "seconds": seconds, "runs": runs}, fh, indent=1)
    for m in bench["end_to_end"]:
        name = m["name"]
        line = [f"{args.workload} {name}:"]
        for side in sides:
            med, q1, q3, spread = summary([r[name] for r in runs[side]])
            line.append(f"{side} median {med:.5g} [{q1:.5g} .. {q3:.5g}] "
                        f"spread {spread:.3f}")
        line.append(f"bound {m['bound']}")
        if args.head:
            line.append(verdict([r[name] for r in runs["base"]],
                                [r[name] for r in runs["head"]], m["bound"],
                                m["better"] == "lower"))
        print("  ".join(line))


if __name__ == "__main__":
    main()

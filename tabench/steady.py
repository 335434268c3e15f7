#!/usr/bin/env python3
"""Steadiness check: run one workload k times with seeds first..first+k-1
and print each end-to-end metric's median and interquartile spread (Q3 - Q1
over the median, as statistics.quantiles(values, n=4) gives the quartiles)
next to its bound from BENCHMARK.json. Every metric, setup_s included, is
judged: "yes" when the spread is below a third of the bound, "within" when
it is below the bound, "NO" otherwise.

    python3 tabench/steady.py --workload table1 --runs 10 --save a.json
    python3 tabench/steady.py --workload table1 --runs 10 --first-seed 11 --compare a.json
    python3 tabench/steady.py --workload table1 --runs 3 --traced

--save writes the series' values to a JSON file; --compare reads such a
file and also prints, per metric, how far this series' median is worse than
the earlier one's as a share of it, judged against the bound: two series of
the same code must agree within it. With --traced it also makes one traced
run and prints the tracing overhead (traced wall_s over the untraced
median) and the traced run's layer metrics. Run from the repository root.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run(workload, seed, seconds, trace):
    cmd = ["bash", "tabench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{' '.join(cmd)}: an output check failed")
    return result


def spread(vals):
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / med if med else float("inf")


def verdict(x, bound):
    if x < bound / 3:
        return "yes"
    return "within" if x <= bound else "NO"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--save", help="write the series' values to this JSON file")
    ap.add_argument("--compare", help="an earlier series saved with --save")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    values = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        for name, m in run(args.workload, seed, seconds, 0)["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed} done", file=sys.stderr)
    if args.save:
        with open(args.save, "w") as f:
            json.dump({"workload": args.workload, "first_seed": args.first_seed, "values": values}, f)
    earlier = None
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)["values"]
    print(f"{args.workload}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
    print(f"{'metric':<16} {'median':>12} {'spread':>7} {'bound':>6}  {'ok':<6}"
          + (f" {'worse':>7}  ok    " if earlier else "") + "  values")
    for m in bench["end_to_end"]:
        vals = values.get(m["name"], [])
        if len(vals) < 2:
            print(f"{m['name']:<16} missing")
            continue
        med = statistics.median(vals)
        s = spread(vals)
        line = f"{m['name']:<16} {med:>12.6g} {s:>7.4f} {m['bound']:>6}  {verdict(s, m['bound']):<6}"
        if earlier:
            before = statistics.median(earlier[m["name"]])
            worse = (med - before) / before if m["better"] == "lower" else (before - med) / before
            line += f" {worse:>+7.4f}  {'yes' if worse <= m['bound'] else 'NO':<5}"
        print(line + f"  [{' '.join(f'{v:.4g}' for v in vals)}]")
    if args.traced:
        traced = run(args.workload, args.first_seed, seconds, 1)["metrics"]
        wall = statistics.median(values["wall_s"])
        print(f"tracing overhead: traced wall_s {traced['trace.wall_s']['value']:.4f} s "
              f"vs untraced median {wall:.4f} s ({traced['trace.wall_s']['value'] / wall - 1:+.2%})")
        for name, m in traced.items():
            if m["value"]:
                print(f"  {name:<32} {m['value']:>16.6g} {m['unit']}")


if __name__ == "__main__":
    main()

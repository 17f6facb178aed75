#!/usr/bin/env python3
"""Run the benchmark in alternating pairs of two checkouts and compare them.

    python3 tools/pairs.py --parent ../parent --change . \\
        --workload criteo-smallpart --seeds 1301-1310 [--seconds 15] [--raw runs.jsonl]

Pair i runs `python3 perfbench/run.py` with seed i in both checkouts, one
after the other; the parent runs first in even pairs and the change first in
odd ones, so neither side always runs on the machine state the other left.
For each end-to-end metric of the change's BENCHMARK.json it then prints the
per-pair values, each side's median and quartiles, the parent's
interquartile range (IQR), and how many pairs the change won (ties count
for neither side). `gain` says whether the change won at least nine tenths
of the pairs and its median beats the parent's by more than the parent's
IQR; `worse` gives how far the change's median is behind the parent's, as a
share of the parent's, against the metric's bound.

Only the two JSON lines run.py prints last are read: the run's context and
its result. `--raw` appends both, with the side, seed and order, to a JSON
Lines file, so that per-round context such as `pipeline_ms` can be read
later. Standard library only.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys


def parse_seeds(text):
    """'1301-1305' or '1,4,9' (or a mix) as a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run(checkout, workload, seed, seconds):
    """(context, result) of one run.py run in `checkout`; exits on failure."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"pairs: {checkout} seed {seed}: run.py exited with code {proc.returncode}")
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


def quartiles(values):
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def report(spec, seeds, parent, change):
    """Lines comparing one metric over the pairs."""
    name, higher = spec["name"], spec["better"] == "higher"
    p = [r["metrics"][name]["value"] for r in parent]
    c = [r["metrics"][name]["value"] for r in change]
    wins = sum((b > a) if higher else (b < a) for a, b in zip(p, c))
    losses = sum((b < a) if higher else (b > a) for a, b in zip(p, c))
    (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
    gain = wins >= 0.9 * len(p) and ((cm - pm) if higher else (pm - cm)) > p3 - p1
    worse = ((pm - cm) if higher else (cm - pm)) / abs(pm) if pm else 0.0
    out = [f"{name} ({spec['unit']}, {spec['better']} is better)"]
    out += [f"  seed {s}: parent {a:.6g}  change {b:.6g}" for s, a, b in zip(seeds, p, c)]
    out.append(f"  parent median {pm:.6g} [Q1 {p1:.6g}, Q3 {p3:.6g}, IQR {p3 - p1:.6g}]")
    out.append(f"  change median {cm:.6g} [Q1 {c1:.6g}, Q3 {c3:.6g}, IQR {c3 - c1:.6g}]")
    out.append(f"  change won {wins} of {len(p)} pairs, lost {losses}; gain: {'yes' if gain else 'no'};"
               f" worse: {worse:+.1%} (bound {spec['bound']:.0%})")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=pathlib.Path, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, type=pathlib.Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 1301-1310 or 1,5,9")
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--raw", type=pathlib.Path, help="append every run's JSON lines here")
    args = ap.parse_args()

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    results = {"parent": [], "change": []}
    for i, seed in enumerate(args.seeds):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            context, result = run(getattr(args, side), args.workload, seed, args.seconds)
            results[side].append(result)
            print(f"pair {i + 1}/{len(args.seeds)} seed {seed} {side}: correct {result['correct']},"
                  f" failed {result['failed']} of {result['attempted']}", file=sys.stderr, flush=True)
            if args.raw:
                with args.raw.open("a") as f:
                    f.write(json.dumps({"side": side, "seed": seed, "first": side == order[0],
                                        "context": context, "result": result}) + "\n")

    print(f"{args.workload}: {len(args.seeds)} alternating pairs, {args.seconds} s runs")
    for side in ("parent", "change"):
        failed = sum(r["failed"] for r in results[side])
        incorrect = sum(not r["correct"] for r in results[side])
        print(f"{side}: {failed} failed operations, {incorrect} incorrect runs")
    for spec in bench["end_to_end"]:
        print("\n".join(report(spec, args.seeds, results["parent"], results["change"])))


if __name__ == "__main__":
    main()

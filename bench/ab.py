#!/usr/bin/env python3
"""Interleaved same-host A/B of two source trees on one perfbench workload.

    python3 bench/ab.py --base HEAD~1 --workload corpus --runs 10
    python3 bench/ab.py --base v1 --change v2 --workload oneshot --runs 5

Run from the repository root.  Each side is a git revision, exported
with `git archive` into a temporary directory (no checkout or worktree
of this repository is touched), or `.` for the working tree as it is
(the default for --change).  Each side builds itself through
`perfbench/run.py`.  The script then runs

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0

with S the benchmark's own `run_seconds` from BENCHMARK.json, K times
per side, alternating which side goes first in each pair (ABBA...), so
slow drift of the host hits both sides alike.  It prints, for every
metric of the result line, the median of each side, the change/base
ratio of the medians, each side's min-max spread and interquartile
range, and in how many pairs the change did better (by the metric's
`better` direction in BENCHMARK.json), and a 95% bootstrap interval
on the ratio: the pairs are resampled with replacement by a generator
seeded with the fixed constant 0, so the interval repeats exactly for
the same runs, and the interval is the 2.5th-97.5th percentile of the
resampled ratios.  An interval
that excludes 1.0 is a difference the runs resolve.  Any run that is
not `correct` makes the script exit non-zero after the table.

The deterministic counters live elsewhere: `bench/main.exe all --iters 3
--json F` writes them and `bench/compare.exe BASE F --tolerance 0`
diffs them.  Compare those only at CI's `--iters 3`.  The counters
describe the last iteration, and with `--iters 1` that iteration runs
on a cold segment cache, so `seg_alloc_words` comes out non-zero where
a committed `--iters 3` baseline has 0.
"""

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile


def export(rev, root, tmp, side):
    """A directory holding the source tree of [rev] ('.' = working tree).

    The tree is named after its [side], so both sides may name the same
    revision."""
    if rev == ".":
        return root
    dest = os.path.join(tmp, side)
    os.makedirs(dest)
    archive = subprocess.run(["git", "-C", root, "archive", rev],
                             capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout, check=True)
    return dest


def run_once(tree, a, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stdout + r.stderr)
        sys.exit("ab: run failed in " + tree)
    return json.loads(lines[-1])


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def bootstrap_ratio(b, c, rng, resamples=2000):
    """95% interval of median(c)/median(b) over pairs drawn with replacement."""
    n = len(b)
    ratios = []
    for _ in range(resamples):
        idx = [rng.randrange(n) for _ in range(n)]
        mb = statistics.median(b[i] for i in idx)
        if mb:
            ratios.append(statistics.median(c[i] for i in idx) / mb)
    if not ratios:
        return float("nan"), float("nan")
    ratios.sort()
    return (ratios[int(0.025 * (len(ratios) - 1))],
            ratios[int(0.975 * (len(ratios) - 1))])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--base", required=True, help="git revision, or . for the working tree")
    ap.add_argument("--change", default=".", help="git revision, or . (default)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=5, help="runs per side")
    ap.add_argument("--seed", type=int, default=1)
    a = ap.parse_args()

    root = subprocess.run(["git", "rev-parse", "--show-toplevel"], capture_output=True,
                          text=True, check=True).stdout.strip()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    # A terminated run still removes its exported trees.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("ab: terminated"))
    tmp = tempfile.mkdtemp(prefix="ab-")
    try:
        trees = {side: export(rev, root, tmp, side)
                 for side, rev in (("base", a.base), ("change", a.change))}
        runs = {"base": [], "change": []}
        correct = True
        for i in range(a.runs):
            order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
            for side in order:
                res = run_once(trees[side], a, seconds)
                correct = correct and res["correct"]
                runs[side].append({k: v["value"] for k, v in res["metrics"].items()})
            sys.stderr.write("ab: pair %d/%d done\n" % (i + 1, a.runs))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print("workload %s, seed %d, %d runs per side of %gs; base %s, change %s"
          % (a.workload, a.seed, a.runs, seconds, a.base, a.change))
    print("%-20s %12s %12s %7s %15s %25s %25s %6s" % (
        "metric", "base med", "change med", "ratio", "ratio 95% CI",
        "base min-max (IQR)", "change min-max (IQR)", "wins"))
    rng = random.Random(0)
    for m in runs["base"][0]:
        b = [r[m] for r in runs["base"]]
        c = [r[m] for r in runs["change"]]
        mb, mc = statistics.median(b), statistics.median(c)
        sign = 1 if better.get(m, "lower") == "higher" else -1
        wins = sum(1 for x, y in zip(b, c) if sign * (y - x) > 0)
        (bq1, bq3), (cq1, cq3) = quartiles(b), quartiles(c)
        lo, hi = bootstrap_ratio(b, c, rng)
        print("%-20s %12.4g %12.4g %7.3f %15s %25s %25s %3d/%d" % (
            m, mb, mc, mc / mb if mb else float("nan"),
            "%.3f-%.3f" % (lo, hi),
            "%.4g-%.4g (%.3g)" % (min(b), max(b), bq3 - bq1),
            "%.4g-%.4g (%.3g)" % (min(c), max(c), cq3 - cq1), wins, len(b)))
    if not correct:
        sys.exit("ab: a run was not correct")


if __name__ == "__main__":
    main()

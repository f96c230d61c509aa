#!/usr/bin/env python3
"""Interleaved same-host A/B of two source trees on one perfbench workload.

    python3 bench/ab.py --base HEAD~1 --workload corpus --runs 10
    python3 bench/ab.py --base v1 --change v2 --workload oneshot --runs 5
    python3 bench/ab.py --base HEAD~1 --workload compile --runs 4 --layouts 3
    python3 bench/ab.py --base HEAD~1 --workload compile --setup 200

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

With --layouts N (default 1) the whole A/B is repeated for N binary
layouts, k = 0 .. N-1: for layout k each side is built in its own
exported copy (`.` is copied first, never edited in place) whose
`perfbench/perfbench.ml` starts with a k*64-byte string literal that
the program keeps but never reads.  Static data placed before the
benchmark's own moves every later symbol, and the speed of the same
machine code can depend on where that data lands by 15-30%; a shift of
all four workloads at once that follows the layout rather than the
side is that effect, not a code change.  The script prints each
layout's medians and ratio, then the table over all runs.  --runs
counts runs per side per layout.

With --setup N the script instead measures cold set-up alone: it
builds `perfbench.exe` once in each side's tree, then runs N pairs of

    perfbench.exe setup --workload W

one process each, alternating which side goes first (ABBA...), and
prints each side's median, quartiles and min-max of the seconds the
processes print, the change/base ratio of the medians with the same
bootstrap interval, and in how many pairs the change was faster.
`setup_s` is the median of such processes, and it is not normalized for
host speed, so a change to set-up needs many pairs side by side.

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


def pad_source(path, nbytes):
    """Prepend [nbytes] bytes of opaque static string data to the OCaml
    source file [path] (nothing for 0)."""
    if nbytes == 0:
        return
    with open(path) as f:
        src = f.read()
    with open(path, "w") as f:
        f.write('let _layout_pad = Sys.opaque_identity "%s"\n' % ("x" * nbytes) + src)


def copy_worktree(root, dest):
    """Copy the working tree as it is: tracked and untracked files that
    git does not ignore, so no build output."""
    files = subprocess.run(["git", "-C", root, "ls-files", "-z", "-c", "-o",
                            "--exclude-standard"],
                           capture_output=True, check=True).stdout.split(b"\0")
    for name in files:
        src = os.path.join(root, os.fsdecode(name))
        if name and os.path.isfile(src):
            dst = os.path.join(dest, os.fsdecode(name))
            os.makedirs(os.path.dirname(dst), exist_ok=True)
            shutil.copy2(src, dst)


def layout_tree(rev, root, tmp, side, k):
    """The tree of [rev] for layout [k]: [export]'s tree for k = 0, else
    a copy of its own (the working tree copied for '.') whose
    perfbench.ml is padded by k*64 bytes."""
    if k == 0:
        return export(rev, root, tmp, side)
    name = "%s-layout%d" % (side, k)
    if rev == ".":
        dest = os.path.join(tmp, name)
        os.makedirs(dest)
        copy_worktree(root, dest)
    else:
        dest = export(rev, root, tmp, name)
    pad_source(os.path.join(dest, "perfbench", "perfbench.ml"), 64 * k)
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


def pair_order(i):
    """The sides in the order pair [i] runs them: base first in even pairs."""
    return ("base", "change") if i % 2 == 0 else ("change", "base")


def build(tree):
    """Build perfbench.exe in [tree], as perfbench/run.py does; its path."""
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
                       cwd=tree, capture_output=True, text=True, env=env)
    if r.returncode != 0:
        sys.stderr.write(r.stdout + r.stderr)
        sys.exit("ab: build failed in " + tree)
    return os.path.join(tree, "_build", "default", "perfbench", "perfbench.exe")


def setup_once(exe, workload):
    """Seconds of one cold set-up, in a process of its own."""
    r = subprocess.run([exe, "setup", "--workload", workload], capture_output=True, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout + r.stderr)
        sys.exit("ab: set-up failed: " + exe)
    return float(r.stdout.split()[-1])


def setup_pairs(exes, workload, pairs, run=setup_once):
    """[pairs] alternating pairs of [run] on each side's executable."""
    samples = {"base": [], "change": []}
    for i in range(pairs):
        for side in pair_order(i):
            samples[side].append(run(exes[side], workload))
    return samples


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


def summary(b, c, better, rng):
    """Medians, ratio, its bootstrap interval, quartiles and wins of the
    paired samples [b] (base) and [c] (change)."""
    mb, mc = statistics.median(b), statistics.median(c)
    sign = 1 if better == "higher" else -1
    return {
        "base": mb, "change": mc, "ratio": mc / mb if mb else float("nan"),
        "ci": bootstrap_ratio(b, c, rng),
        "base_q": quartiles(b), "change_q": quartiles(c),
        "wins": sum(1 for x, y in zip(b, c) if sign * (y - x) > 0),
    }


def print_setup(samples, rng):
    b, c = samples["base"], samples["change"]
    s = summary(b, c, "lower", rng)
    for side, xs in (("base", b), ("change", c)):
        q1, q3 = s[side + "_q"]
        print("%-7s median %.4f ms, quartiles %.4f-%.4f ms, min-max %.4f-%.4f ms"
              % (side, 1e3 * s[side], 1e3 * q1, 1e3 * q3, 1e3 * min(xs), 1e3 * max(xs)))
    print("ratio %.3f (95%% CI %.3f-%.3f), change faster in %d/%d pairs"
          % (s["ratio"], s["ci"][0], s["ci"][1], s["wins"], len(b)))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--base", required=True, help="git revision, or . for the working tree")
    ap.add_argument("--change", default=".", help="git revision, or . (default)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=5, help="runs per side")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--layouts", type=int, default=1,
                    help="binary layouts to repeat the A/B over (default 1)")
    ap.add_argument("--setup", type=int, default=0, metavar="N",
                    help="time N per-process pairs of cold set-up instead")
    a = ap.parse_args()
    if a.layouts < 1:
        ap.error("--layouts must be at least 1")
    if a.setup < 0 or (a.setup and a.layouts > 1):
        ap.error("--setup takes a positive count and one layout")

    root = subprocess.run(["git", "rev-parse", "--show-toplevel"], capture_output=True,
                          text=True, check=True).stdout.strip()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    # A terminated run still removes its exported trees.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("ab: terminated"))
    tmp = tempfile.mkdtemp(prefix="ab-")
    runs = {"base": [], "change": []}
    per_layout = []
    correct = True
    try:
        if a.setup:
            trees = {side: export(rev, root, tmp, side)
                     for side, rev in (("base", a.base), ("change", a.change))}
            exes = {side: build(tree) for side, tree in trees.items()}
            print("workload %s, %d set-up pairs; base %s, change %s"
                  % (a.workload, a.setup, a.base, a.change))
            print_setup(setup_pairs(exes, a.workload, a.setup), random.Random(0))
            return
        for k in range(a.layouts):
            trees = {side: layout_tree(rev, root, tmp, side, k)
                     for side, rev in (("base", a.base), ("change", a.change))}
            layout = {"base": [], "change": []}
            for i in range(a.runs):
                for side in pair_order(i):
                    res = run_once(trees[side], a, seconds)
                    correct = correct and res["correct"]
                    layout[side].append({m: v["value"] for m, v in res["metrics"].items()})
                sys.stderr.write("ab: layout %d, pair %d/%d done\n" % (k, i + 1, a.runs))
            per_layout.append(layout)
            for side in runs:
                runs[side] += layout[side]
            for tree in trees.values():
                if tree != root:
                    shutil.rmtree(tree, ignore_errors=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if a.layouts > 1:
        print("per layout (k*64 bytes prepended to perfbench.ml), medians base -> change (ratio)")
        for m in runs["base"][0]:
            cells = []
            for layout in per_layout:
                mb = statistics.median(r[m] for r in layout["base"])
                mc = statistics.median(r[m] for r in layout["change"])
                cells.append("%.4g -> %.4g (%.3f)" % (mb, mc, mc / mb if mb else float("nan")))
            print("%-20s %s" % (m, "   ".join("k=%d: %s" % (k, c) for k, c in enumerate(cells))))
        print()
    print("workload %s, seed %d, %d runs per side of %gs over %d layout(s); base %s, change %s"
          % (a.workload, a.seed, a.runs * a.layouts, seconds, a.layouts, a.base, a.change))
    print("%-20s %12s %12s %7s %15s %25s %25s %6s" % (
        "metric", "base med", "change med", "ratio", "ratio 95% CI",
        "base min-max (IQR)", "change min-max (IQR)", "wins"))
    rng = random.Random(0)
    for m in runs["base"][0]:
        b = [r[m] for r in runs["base"]]
        c = [r[m] for r in runs["change"]]
        s = summary(b, c, better.get(m, "lower"), rng)
        (bq1, bq3), (cq1, cq3) = s["base_q"], s["change_q"]
        print("%-20s %12.4g %12.4g %7.3f %15s %25s %25s %3d/%d" % (
            m, s["base"], s["change"], s["ratio"],
            "%.3f-%.3f" % s["ci"],
            "%.4g-%.4g (%.3g)" % (min(b), max(b), bq3 - bq1),
            "%.4g-%.4g (%.3g)" % (min(c), max(c), cq3 - cq1), s["wins"], len(b)))
    if not correct:
        sys.exit("ab: a run was not correct")


if __name__ == "__main__":
    main()

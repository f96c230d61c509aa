#!/usr/bin/env python3
"""Build the benchmark from the source tree and run one workload.

    python3 perfbench/run.py --workload oneshot --seed 1 --seconds 10 --trace 0

Run from the repository root.  With --trace 0 it prints the end-to-end
metrics of BENCHMARK.json (closed loop, tracing off); with --trace 1 the
per-layer metrics of a traced replay.  Earlier lines of standard output
carry provenance and detail; the last line is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exits non-zero, without a result line, if the program cannot be built
or any step fails.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")

# Cold set-up is a few milliseconds in one process, so setup_s is the
# median of this many fresh processes.
SETUP_SAMPLES = 31


def fail(msg):
    sys.stderr.write("perfbench: " + msg + "\n")
    sys.exit(1)


def build():
    # No shared dune cache: the build reads and writes only the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
        capture_output=True, text=True, env=env, timeout=880)
    if r.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(r.stdout + r.stderr)
        fail("build failed")


def run_exe(args, stdin=None, timeout=120):
    try:
        r = subprocess.run([EXE] + args, input=stdin, capture_output=True,
                           text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(args))
    sys.stderr.write(r.stderr)
    if r.returncode != 0:
        fail("failed: " + " ".join(args))
    return r.stdout.splitlines()


def revision():
    """The git revision, or a digest of the sources outside git."""
    if os.path.isdir(".git"):
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    for top in ["dune-project", "lib", "bin", "perfbench"]:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "sources-sha256:" + h.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if a.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + a.workload)
    wanted = spec["per_layer"] if a.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    build()
    sel = ["--workload", a.workload, "--seed", str(a.seed)]
    refs = "\n".join(run_exe(["refs"] + sel)) + "\n"
    if a.trace:
        lines = run_exe(["trace"] + sel, stdin=refs)
    else:
        setup = [float(run_exe(["setup", "--workload", a.workload])[-1])
                 for _ in range(SETUP_SAMPLES)]
        lines = run_exe(["run"] + sel + ["--seconds", str(a.seconds)], stdin=refs,
                        timeout=2 * a.seconds + 60)
    if len(lines) < 2:
        fail("no result from the measuring program")
    info = json.loads(lines[-2])
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    if not a.trace:
        metrics["setup_s"] = statistics.median(setup)
        info["setup_samples"] = SETUP_SAMPLES
    if set(metrics) != set(units):
        fail("metrics differ from BENCHMARK.json: %s"
             % sorted(set(metrics) ^ set(units)))

    provenance = {
        "workload": a.workload, "seed": a.seed, "backend": info.pop("backend"),
        "nproc": os.cpu_count(), "cpu_model": cpu_model(), "ocaml": info.pop("ocaml"),
        "revision": revision(),
    }
    print(json.dumps({"provenance": provenance}))
    for line in lines[:-2]:
        print(line)
    print(json.dumps(info))
    print(json.dumps({
        "correct": bool(result["correct"]) and result["attempted"] > 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Flat native profile of one perfbench workload, by sampling the program counter.

    python3 bench/prof.py --workload oneshot --seed 1 --seconds 3
    python3 bench/prof.py [--interval MS] [--top N] -- CMD ARGS...
    python3 bench/prof.py --self-test

Run from the repository root.  By default the script builds
`perfbench.exe` with dune, computes the workload's reference values
(`perfbench.exe refs`), and starts

    perfbench.exe run --workload W --seed N --seconds S

with the references on its standard input.  After `--` it instead
starts CMD with ARGS as given (looked up on PATH, its standard output
discarded), samples it until it exits, and fails if it exits non-zero;
this profiles a single phase loop built as its own executable.  Every --interval
milliseconds (2 by default) it attaches to the process with ptrace,
reads the instruction pointer, and detaches.  Each address is mapped to
the enclosing symbol of `nm -n`, relative to the executable's load base
read from /proc/PID/maps (a position-independent executable loads at a
random base); an address outside the executable is named after the
mapping that holds it, e.g. `[libc.so.6]`.  The report lists the
hottest symbols and the share of samples in OCaml's write barrier,
`caml_modify` plus `caml_darken`.

The samples cover the whole process, set-up and warm-up included.  It
needs Linux on x86-64 and permission to ptrace a child process, which
some sandboxes and CI runners deny; `--self-test` checks only the symbol
lookup and the argument split, and runs no program.
"""

import argparse
import bisect
import collections
import ctypes
import ctypes.util
import os
import shutil
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
BARRIER = ("caml_modify", "caml_darken")

PTRACE_GETREGS = 12
PTRACE_DETACH = 17
PTRACE_SEIZE = 0x4206
PTRACE_INTERRUPT = 0x4207
WALL = 0x40000000
# Index of rip in the x86-64 `struct user_regs_struct` (27 words).
RIP_INDEX = 16


def fail(msg):
    sys.stderr.write("prof: " + msg + "\n")
    sys.exit(1)


# ------------------------------------------------------------------ #
# Symbol lookup                                                       #
# ------------------------------------------------------------------ #

def parse_nm(text):
    """Sorted (addresses, names) of the text symbols in `nm -n` output."""
    addrs, names = [], []
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[1] in "tTwW":
            addrs.append(int(parts[0], 16))
            names.append(parts[2])
    order = sorted(range(len(addrs)), key=lambda i: addrs[i])
    return [addrs[i] for i in order], [names[i] for i in order]


def is_pie(header):
    """Whether an ELF header (its first 18 bytes) is ET_DYN."""
    return header[:4] == b"\x7fELF" and int.from_bytes(header[16:18], "little") == 3


def parse_maps(text, exe):
    """The load base of [exe] and the (start, end, name) executable
    mappings of a /proc/PID/maps listing."""
    base, regions = None, []
    for line in text.splitlines():
        parts = line.split(None, 5)
        if len(parts) < 5:
            continue
        lo, hi = (int(x, 16) for x in parts[0].split("-"))
        path = parts[5].strip() if len(parts) == 6 else ""
        if path == exe and int(parts[2], 16) == 0 and base is None:
            base = lo
        if "x" in parts[1]:
            regions.append((lo, hi, os.path.basename(path) or "anon"))
    return base, regions


class Symbolizer:
    def __init__(self, nm_text, maps_text, exe, pie):
        self.addrs, self.names = parse_nm(nm_text)
        base, self.regions = parse_maps(maps_text, exe)
        self.exe = exe
        self.base = (base or 0) if pie else 0

    def lookup(self, pc):
        for lo, hi, name in self.regions:
            if lo <= pc < hi and name != os.path.basename(self.exe):
                return name if name.startswith("[") else "[" + name + "]"
        i = bisect.bisect_right(self.addrs, pc - self.base) - 1
        return self.names[i] if i >= 0 else "[unknown]"


def self_test():
    nm = "\n".join([
        "0000000000001000 T caml_start",
        "                 U malloc",
        "0000000000002000 W caml_modify",
        "0000000000002400 T caml_darken",
        "0000000000002800 t camlVm_core.exec_123",
        "0000000000004000 D caml_data",
    ])
    exe = "/x/perfbench.exe"
    maps = "\n".join([
        "55d0c0000000-55d0c0001000 r--p 00000000 08:01 42 /x/perfbench.exe",
        "55d0c0001000-55d0c0004000 r-xp 00001000 08:01 42 /x/perfbench.exe",
        "7f0000000000-7f0000100000 r-xp 00000000 08:01 7 /lib/libc.so.6",
        "7ffc00000000-7ffc00002000 r-xp 00000000 00:00 0 [vdso]",
    ])
    base = 0x55D0C0000000
    s = Symbolizer(nm, maps, exe, pie=True)
    cases = [
        (base + 0x1004, "caml_start"),
        (base + 0x2000, "caml_modify"),
        (base + 0x23FF, "caml_modify"),
        (base + 0x2400, "caml_darken"),
        (base + 0x3000, "camlVm_core.exec_123"),
        (base + 0x0800, "[unknown]"),
        (0x7F0000000040, "[libc.so.6]"),
        (0x7FFC00000010, "[vdso]"),
    ]
    for pc, want in cases:
        got = s.lookup(pc)
        assert got == want, "0x%x: %s, expected %s" % (pc, got, want)
    # A fixed-address executable is looked up without a base.
    s = Symbolizer(nm, "", exe, pie=False)
    assert s.lookup(0x2404) == "caml_darken"
    assert parse_nm(nm)[1] == ["caml_start", "caml_modify", "caml_darken",
                               "camlVm_core.exec_123"]
    assert is_pie(b"\x7fELF" + b"\0" * 12 + b"\x03\x00")
    assert not is_pie(b"\x7fELF" + b"\0" * 12 + b"\x02\x00")
    counts = collections.Counter({"caml_modify": 3, "caml_darken": 1, "f": 4})
    assert barrier_share(counts) == 0.5
    splits = [
        ([], ([], [])),
        (["--workload", "compile"], (["--workload", "compile"], [])),
        (["--top", "5", "--", "./loop.exe", "--n", "3"],
         (["--top", "5"], ["./loop.exe", "--n", "3"])),
        (["--", "cmd", "--", "x"], ([], ["cmd", "--", "x"])),
        (["--"], ([], [])),
    ]
    for argv, want in splits:
        got = split_command(argv)
        assert got == want, "%r: %r, expected %r" % (argv, got, want)
    print("prof self-test: ok (%d lookups, %d splits)"
          % (len(cases) + 1, len(splits)))


def barrier_share(counts):
    total = sum(counts.values())
    return sum(counts[n] for n in BARRIER) / total if total else 0.0


# ------------------------------------------------------------------ #
# Sampling                                                            #
# ------------------------------------------------------------------ #

def sample_pc(libc, pid):
    """Stop [pid], read its instruction pointer, let it run on; None
    when the process has gone.

    PTRACE_SEIZE plus PTRACE_INTERRUPT stops the process without
    sending it a signal.  Should a signal of its own arrive first, the
    stop reports that signal instead, and detaching passes it on."""
    if libc.ptrace(PTRACE_SEIZE, pid, None, None) != 0:
        return None
    libc.ptrace(PTRACE_INTERRUPT, pid, None, None)
    status = ctypes.c_int()
    if libc.waitpid(pid, ctypes.byref(status), WALL) != pid:
        return None
    st = status.value
    if st & 0xFF != 0x7F:
        return None
    regs = (ctypes.c_ulonglong * 27)()
    ok = libc.ptrace(PTRACE_GETREGS, pid, None, ctypes.byref(regs)) == 0
    sig = 0 if st >> 16 else (st >> 8) & 0xFF
    libc.ptrace(PTRACE_DETACH, pid, None, ctypes.c_void_p(sig))
    return regs[RIP_INDEX] if ok else None


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
                       capture_output=True, text=True, env=env)
    if r.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(r.stdout + r.stderr)
        fail("build failed")


def split_command(argv):
    """The script's own options and the command after the first `--`."""
    if "--" not in argv:
        return argv, []
    i = argv.index("--")
    return argv[:i], argv[i + 1:]


def sample(a, proc, exe, what):
    """Sample [proc], running [exe], until it exits; print the report."""
    if os.uname().machine != "x86_64":
        fail("sampling reads x86-64 registers; this is " + os.uname().machine)
    libc = ctypes.CDLL(ctypes.util.find_library("c"), use_errno=True)
    libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_int, ctypes.c_void_p,
                            ctypes.c_void_p]
    libc.ptrace.restype = ctypes.c_long
    with open(exe, "rb") as f:
        pie = is_pie(f.read(18))
    nm = subprocess.run(["nm", "-n", exe], capture_output=True, text=True,
                        check=True).stdout
    # Popen may return before the child has replaced its image: wait
    # until the executable shows in the child's mappings.
    for _ in range(1000):
        with open("/proc/%d/maps" % proc.pid) as f:
            maps = f.read()
        if parse_maps(maps, exe)[0] is not None:
            break
        time.sleep(0.001)
    else:
        fail("%s never appeared in /proc/%d/maps" % (exe, proc.pid))
    sym = Symbolizer(nm, maps, exe, pie)
    pcs = []
    while proc.poll() is None:
        pc = sample_pc(libc, proc.pid)
        if pc is None:
            if proc.poll() is None and not pcs:
                fail("ptrace attach failed (errno %d)" % ctypes.get_errno())
            break
        pcs.append(pc)
        time.sleep(a.interval / 1000.0)
    proc.wait()
    counts = collections.Counter(sym.lookup(pc) for pc in pcs)
    total = len(pcs)
    print("%d samples, every %g ms, %s" % (total, a.interval, what))
    for name, n in counts.most_common(a.top):
        print("%6.2f%% %6d  %s" % (100.0 * n / total, n, name))
    print("write barrier (caml_modify + caml_darken): %.1f%% of %d samples"
          % (100.0 * barrier_share(counts), total))


def profile(a):
    build()
    exe = os.path.realpath(EXE)
    sel = ["--workload", a.workload, "--seed", str(a.seed)]
    refs = subprocess.run([exe, "refs"] + sel, capture_output=True, text=True,
                          check=True).stdout
    proc = subprocess.Popen([exe, "run"] + sel + ["--seconds", str(a.seconds)],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    proc.stdin.write(refs)
    proc.stdin.close()
    sample(a, proc, exe, "%s seed %d, %g s" % (a.workload, a.seed, a.seconds))
    out = proc.stdout.read()
    if proc.returncode != 0 or '"correct": true' not in out:
        fail("the measured run failed")


def profile_command(a, cmd):
    path = shutil.which(cmd[0])
    if path is None:
        fail("command not found: " + cmd[0])
    exe = os.path.realpath(path)
    proc = subprocess.Popen([path] + cmd[1:], stdout=subprocess.DEVNULL)
    sample(a, proc, exe, " ".join(cmd))
    if proc.returncode != 0:
        fail("the command exited with status %d" % proc.returncode)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=3.0)
    ap.add_argument("--interval", type=float, default=2.0, help="milliseconds")
    ap.add_argument("--top", type=int, default=20)
    ap.add_argument("--self-test", action="store_true")
    own, cmd = split_command(sys.argv[1:])
    a = ap.parse_args(own)
    if a.self_test:
        self_test()
    elif cmd:
        profile_command(a, cmd)
    elif not a.workload:
        fail("--workload or a command after -- is required")
    else:
        profile(a)


if __name__ == "__main__":
    main()

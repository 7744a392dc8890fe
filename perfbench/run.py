#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fuzz --seed 1 --seconds 10 --trace 0

It builds perfbench/main.exe from source with dune (build directory
.bench_build, release profile), then runs it; the executable prints the
result object as the last line of standard output.  Build output goes
to standard error.  The exit code is the executable's (1 when a check
failed), or 2 when the tree cannot be built.
"""

import argparse
import hashlib
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
OUT_DIR = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("fuzz", "fleet", "exploit_cells")
SOURCE_DIRS = ("lib", "bin", "bench", "perfbench")


def build():
    """Build the benchmark executable; return its path or None."""
    if not os.path.isfile("dune-project"):
        print("perfbench: no dune-project here; run from the repository root",
              file=sys.stderr)
        return None
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/main.exe"]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=850)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return None
    if done.returncode != 0 or not os.path.isfile(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return None
    return EXE


def source_digest():
    """SHA-256 over the program and benchmark sources (path + bytes)."""
    h = hashlib.sha256()
    paths = ["dune-project"]
    for top in SOURCE_DIRS:
        for root, dirs, files in os.walk(top):
            dirs[:] = sorted(d for d in dirs if not d.startswith((".", "_")))
            paths += [os.path.join(root, f) for f in files
                      if f.endswith((".ml", ".mli", ".py", "dune"))]
    for path in sorted(paths):
        h.update(path.encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def commit():
    """HEAD of the checkout, when it is a git work tree."""
    if not os.path.isdir(".git"):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    exe = build()
    if exe is None:
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit(), "--source-digest", source_digest(),
           "--out-dir", OUT_DIR]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())

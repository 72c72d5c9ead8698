#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root.  The first call configures and builds
libigrflow plus the perfbench executable under .bench_build/ (Release, the
root CMakeLists' flags); later calls only re-check the build.  Build output
goes to stderr; the benchmark's stdout is passed through, and with a single
workload its last line is the JSON result.  Records and traces are written
to .bench_out/.  See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_out"
WORKLOADS = ["jet-fp64-cached", "jet33-bf16-streamed", "jet-fp64-4rank"]
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "app" / "simulation.hpp").is_file() or \
            not (ROOT / "CMakeLists.txt").is_file():
        fail(f"no igrflow sources under {ROOT} (run from the repository root)")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd), 3)
    return BUILD / "perfbench"


def provenance():
    """Commit, dirty flag and a hash of every source file the build reads."""
    commit, dirty = "none (not a git checkout)", "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True).stdout.strip()
            status = subprocess.run(
                ["git", "-C", str(ROOT), "status", "--porcelain",
                 "--untracked-files=no"],
                capture_output=True, text=True, check=True).stdout
            dirty = "1" if status.strip() else "0"
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt", HERE / "CMakeLists.txt"]
    for d in (ROOT / "src", HERE / "src"):
        files += sorted(p for p in d.rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return commit, dirty, h.hexdigest()


def run(exe, args):
    try:
        return subprocess.run([str(exe)] + args, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not a.self_test and a.workload is None:
        ap.error("--workload is required (or --self-test)")

    exe = build()
    OUT.mkdir(exist_ok=True)
    common = ["--out-dir", str(OUT)]
    if a.self_test:
        sys.exit(run(exe, ["--self-test"] + common))
    commit, dirty, src_hash = provenance()
    common += ["--commit", commit, "--dirty", dirty, "--src-hash", src_hash]
    code = 0
    for w in (WORKLOADS if a.workload == "all" else [a.workload]):
        code |= run(exe, ["--workload", w, "--seed", str(a.seed),
                          "--seconds", str(a.seconds),
                          "--trace", str(a.trace)] + common)
    sys.exit(code)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Builds and runs the BrowserFlow end-to-end verdict benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload docs_typing --seed 1 --seconds 24 --trace 0

The first call configures and builds `bf_e2e` from ../src into
.bench_build/e2e (Release, lock-rank checks off: the repository's `release`
preset); later calls only rebuild what changed. The script prints the
source identity (git commit, or a digest of src/ outside a git checkout)
and the src/ line count, then runs the benchmark and passes its output
through. The last stdout line is the benchmark's JSON result; the exit code
is the benchmark's (non-zero when a correctness check failed).
"""
import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "e2e"
BINARY = BUILD / "bf_e2e"
WORKLOADS = ("docs_typing", "paste_upload")


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, timeout):
    """Runs a build step; its output goes to stderr only if it fails."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        fail(f"failed: {' '.join(cmd)}")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("BrowserFlow sources (src/) not found next to e2ebench/")
    if not (BUILD / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", str(ROOT / "e2ebench"), "-B", str(BUILD),
                    "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", str(BUILD), "--target", "bf_e2e",
                "-j", jobs], timeout=840)


def source_identity():
    """git commit when available, else a digest over src/ file contents."""
    files = sorted(p for p in (ROOT / "src").rglob("*")
                   if p.is_file() and p.suffix in (".h", ".cpp"))
    loc = sum(p.read_bytes().count(b"\n") for p in files)
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    if commit is None:
        digest = hashlib.sha1()
        for p in files:
            digest.update(str(p.relative_to(ROOT)).encode())
            digest.update(p.read_bytes())
        commit = "src-sha1:" + digest.hexdigest()[:16]
    return commit, loc


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    build()
    commit, loc = source_identity()
    print(f"# source: commit={commit} src_loc={loc}", flush=True)
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=170)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()

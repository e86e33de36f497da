#!/usr/bin/env python3
"""bflint -- BrowserFlow's project lint.

Fast, dependency-free checks for project invariants that the compiler
cannot enforce:

  raw-mutex           std::mutex / std::lock_guard / std::scoped_lock /
                      std::condition_variable outside src/util. Concurrency
                      primitives must go through bf::util::Mutex (ranked,
                      annotated; see src/util/mutex.h). std::unique_lock is
                      allowed: it is the handle type for util::Mutex's
                      lockState()-style APIs.
  wall-clock          Non-deterministic time / randomness outside
                      src/util/clock.* and src/util/rng.*: system_clock,
                      std::time, gettimeofday, clock_gettime, rand/srand,
                      and every sleep variant. The simulation is
                      deterministic; steady_clock (monotonic, measurement
                      only) is explicitly allowed.
  raw-timing          Raw std::chrono timing inside src/core or src/flow.
                      The decision pipeline reports time through obs
                      (StageTimer / recordStage on util::fastTicks), so
                      per-stage attribution cannot be bypassed; src/obs and
                      src/util/clock.h own the raw clocks.
  deque-scratch       std::deque inside src/text. The fingerprint kernel is
                      the hottest loop in the system; its scratch structures
                      are flat rings/vectors in a reusable workspace
                      (text/fingerprint_kernel.h). A deque's chunked nodes
                      reintroduce pointer-chasing and per-call allocation.
  state-file-io       Direct file I/O (std::ofstream / std::ifstream /
                      std::fstream, bare ::open/::write/::fsync syscalls,
                      opendir/mkdir, std::rename/std::remove) anywhere in
                      src/core, src/flow or src/tdm. ALL durable-state I/O
                      flows through the bf::io VFS seam (src/io/vfs.h):
                      snapshot, checkpoint and deployment files through
                      flow::writeSealedFile/readSealedFile, the WAL
                      through an io::Vfs, which is what
                      lets the storage-chaos suites inject ENOSPC / torn
                      writes / fsync failures. A direct stream or syscall
                      would bypass both the seam and the framing that makes
                      crash recovery trustworthy.
  console-output      printf / fprintf / puts, std::cout / std::cerr and
                      <iostream> in src/. Library code reports through the
                      obs registry, the audit log or the flight recorder;
                      the one exception is util/mutex.cpp's lock-rank
                      abort message, printed just before the process dies.
  missing-pragma-once Headers must use `#pragma once`.
  include-hygiene     No `#include "../..."` / `#include "./..."` path
                      escapes, no <bits/...> internals, and every quoted
                      project include must resolve against src/ (or the
                      including file's own directory, for bench/ helpers).

Usage:
  scripts/bflint.py [root ...]      # lint trees/files (default: src)
  scripts/bflint.py --selftest      # run the rule fixtures in tests/lint
  scripts/bflint.py --json ...      # machine-readable findings

Exit status: 0 when clean, 1 when any rule fires (or a selftest
expectation is not met). Findings print as `path:line: [rule] message`.
"""

from __future__ import annotations

import json
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SOURCE_EXTENSIONS = (".h", ".hpp", ".cc", ".cpp")

# Paths (relative, '/'-separated) exempt from a rule.
RAW_MUTEX_ALLOWED_PREFIXES = ("src/util/",)
WALL_CLOCK_ALLOWED = (
    "src/util/clock.h",
    "src/util/clock.cpp",
    "src/util/rng.h",
    "src/util/rng.cpp",
)

RAW_MUTEX_PATTERNS = [
    (re.compile(r"\bstd::(recursive_|shared_|timed_|recursive_timed_)?mutex\b"),
     "raw std::mutex family; use bf::util::Mutex (ranked + annotated)"),
    (re.compile(r"\bstd::lock_guard\b"),
     "std::lock_guard; use bf::util::MutexLock"),
    (re.compile(r"\bstd::scoped_lock\b"),
     "std::scoped_lock; use bf::util::MutexLock"),
    (re.compile(r"\bstd::condition_variable(_any)?\b"),
     "std::condition_variable; nothing waits on a condition (a ranked "
     "wrapper would have to keep Mutex's rank bookkeeping across the wait)"),
]

WALL_CLOCK_PATTERNS = [
    (re.compile(r"\bsystem_clock\b"),
     "wall-clock time; use util::Clock (or steady_clock for measurement)"),
    (re.compile(r"\bstd::time\b|\btime\s*\(\s*(NULL|nullptr|0)\s*\)"),
     "std::time; use util::Clock"),
    (re.compile(r"\b(gettimeofday|clock_gettime)\s*\("),
     "raw OS clock; use util::Clock"),
    (re.compile(r"\bs?rand\s*\("),
     "libc rand; use the seeded util::Rng"),
    (re.compile(r"\b(sleep|usleep|nanosleep)\s*\(|\bsleep_(for|until)\b"),
     "sleeping; simulate delays (SimNetwork latency model) instead"),
]

RAW_TIMING_PATTERNS = [
    (re.compile(r"\bstd\s*::\s*chrono\b|#\s*include\s*<chrono>"),
     "raw std::chrono timing in the pipeline; use obs::StageTimer / "
     "obs::recordStage (util::fastTicks) so the time is attributed to a "
     "stage histogram and the flight recorder"),
]

DEQUE_PATTERNS = [
    (re.compile(r"\bstd::deque\b|#\s*include\s*<deque>"),
     "std::deque in the text hot path; use a flat ring buffer in "
     "FingerprintWorkspace (text/fingerprint_kernel.h)"),
]

# Directories whose file I/O must go through io::Vfs, and the files among
# them that are exempt (none: snapshots, checkpoints, deployments and the
# WAL all read and write through the seam).
STATE_FILE_IO_DIRS = ("src/core/", "src/flow/", "src/tdm/")
STATE_FILE_IO_ALLOWED = ()

STATE_FILE_IO_PATTERNS = [
    (re.compile(r"\bstd::(ofstream|ifstream|fstream)\b"),
     "direct state-file stream; route file I/O through the bf::io VFS seam "
     "(src/io/vfs.h) so the storage-chaos suites can inject faults"),
    (re.compile(r"\bstd::(rename|remove)\s*\("),
     "direct filesystem mutation; use io::Vfs::rename / io::Vfs::remove "
     "(src/io/vfs.h)"),
    # Bare global-namespace POSIX calls (`::open(...)`). The negative
    # char class keeps `WriteAheadLog::open(` method definitions/calls
    # from matching: those have an identifier before the `::`.
    (re.compile(r"(^|[^\w)])::(open|openat|creat|write|pwrite|read|pread|"
                r"fsync|fdatasync|unlink|rename|mkdir|ftruncate)\s*\("),
     "raw POSIX file syscall; route file I/O through the bf::io VFS seam "
     "(src/io/vfs.h)"),
    (re.compile(r"\b(opendir|readdir|closedir|fopen|fwrite|fread)\s*\("),
     "raw libc file I/O; use io::Vfs (listDir/open*) from src/io/vfs.h"),
]

# Raw SIMD intrinsics live ONLY behind the runtime dispatcher
# (src/text/simd/, see text/simd/kernel.h) or crc32c's existing SSE4.2
# dispatch — everywhere else they bypass cpuid gating and the scalar
# fallback contract.
SIMD_INTRINSICS_ALLOWED_PREFIXES = ("src/text/simd/",)
SIMD_INTRINSICS_ALLOWED = ("src/util/crc32c.cpp",)

SIMD_INTRINSICS_PATTERNS = [
    (re.compile(r"\b_mm(?:256|512)?_\w+"),
     "raw SIMD intrinsic outside src/text/simd/ (or util/crc32c.cpp); "
     "implement it as a kernel behind the runtime dispatcher "
     "(text/simd/kernel.h) so cpuid gating, BF_FORCE_SCALAR_KERNEL, and "
     "the scalar fallback stay enforceable"),
]

CONSOLE_OUTPUT_ALLOWED = ("src/util/mutex.cpp",)

CONSOLE_OUTPUT_PATTERNS = [
    (re.compile(r"\b(printf|fprintf|puts)\s*\(|\bstd::(cout|cerr)\b|"
                r"#\s*include\s*<iostream>"),
     "console output in library code; report through the obs registry, "
     "the audit log or the flight recorder"),
]

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+(["<])([^">]+)[">]')

_STRIP_RE = re.compile(
    r'//[^\n]*'               # line comment
    r'|/\*.*?\*/'             # block comment
    r'|"(?:\\.|[^"\\\n])*"'   # string literal
    r"|'(?:\\.|[^'\\\n])*'",  # char literal
    re.DOTALL,
)


def strip_comments_and_strings(text: str) -> str:
    """Blanks comments/strings, preserving newlines so line numbers hold."""
    def blank(match: re.Match) -> str:
        return re.sub(r"[^\n]", " ", match.group(0))

    return _STRIP_RE.sub(blank, text)


def relpath(path: str) -> str:
    return os.path.relpath(os.path.abspath(path), REPO_ROOT).replace(os.sep, "/")


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path, self.line, self.rule, self.message = path, line, rule, message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def to_json(self) -> dict:
        return {"file": self.path, "line": self.line, "rule": self.rule,
                "severity": "error", "message": self.message}


def lint_file(path: str, fixture_mode: bool = False) -> list[Finding]:
    rel = relpath(path)
    with open(path, encoding="utf-8", errors="replace") as f:
        raw = f.read()
    code = strip_comments_and_strings(raw)
    lines = code.splitlines()
    findings: list[Finding] = []

    def scan(patterns, rule: str, allowed: bool) -> None:
        if allowed:
            return
        for i, line in enumerate(lines, start=1):
            for pattern, message in patterns:
                if pattern.search(line):
                    findings.append(Finding(rel, i, rule, message))

    scan(RAW_MUTEX_PATTERNS, "raw-mutex",
         not fixture_mode and rel.startswith(RAW_MUTEX_ALLOWED_PREFIXES))
    scan(WALL_CLOCK_PATTERNS, "wall-clock",
         not fixture_mode and rel in WALL_CLOCK_ALLOWED)
    scan(RAW_TIMING_PATTERNS, "raw-timing",
         not fixture_mode and not rel.startswith(("src/core/", "src/flow/")))
    scan(DEQUE_PATTERNS, "deque-scratch",
         not fixture_mode and not rel.startswith("src/text/"))
    scan(SIMD_INTRINSICS_PATTERNS, "simd-intrinsics",
         not fixture_mode and
         (rel.startswith(SIMD_INTRINSICS_ALLOWED_PREFIXES) or
          rel in SIMD_INTRINSICS_ALLOWED))
    scan(STATE_FILE_IO_PATTERNS, "state-file-io",
         not fixture_mode and (not rel.startswith(STATE_FILE_IO_DIRS) or
                               rel in STATE_FILE_IO_ALLOWED))

    scan(CONSOLE_OUTPUT_PATTERNS, "console-output",
         not fixture_mode and (not rel.startswith("src/") or
                               rel in CONSOLE_OUTPUT_ALLOWED))

    if path.endswith((".h", ".hpp")) and not re.search(
            r"^\s*#\s*pragma\s+once\b", code, re.MULTILINE):
        findings.append(Finding(rel, 1, "missing-pragma-once",
                                "header lacks #pragma once"))

    src_root = os.path.join(REPO_ROOT, "src")
    for i, line in enumerate(raw.splitlines(), start=1):
        m = INCLUDE_RE.match(line)
        if m is None:
            continue
        quote, target = m.groups()
        if target.startswith(("../", "./")):
            findings.append(Finding(rel, i, "include-hygiene",
                                    f'relative include "{target}"; include '
                                    "project headers by src/-rooted path"))
            continue
        if quote == "<":
            if target.startswith("bits/"):
                findings.append(Finding(
                    rel, i, "include-hygiene",
                    f"<{target}> is a libstdc++ internal; include the "
                    "standard header instead"))
            continue
        candidates = [os.path.join(src_root, target),
                      os.path.join(os.path.dirname(path), target)]
        if not any(os.path.exists(c) for c in candidates):
            findings.append(Finding(rel, i, "include-hygiene",
                                    f'"{target}" resolves against neither '
                                    "src/ nor the including directory"))

    return findings


def collect_sources(roots: list[str]) -> list[str]:
    out: list[str] = []
    for root in roots:
        if os.path.isfile(root):
            out.append(root)
            continue
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTENSIONS):
                    out.append(os.path.join(dirpath, name))
    return out


# Every rule lint_file() can report. The selftest fails when a rule is hit
# by no passing fixture: a rule nothing exercises could be dead and nobody
# would notice.
RULES = ("raw-mutex", "wall-clock", "raw-timing", "deque-scratch",
         "simd-intrinsics", "state-file-io", "console-output",
         "missing-pragma-once", "include-hygiene")

EXPECT_RE = re.compile(r"//\s*bflint-expect:\s*([a-z0-9-]+(?:\s*,\s*[a-z0-9-]+)*)")


def selftest() -> int:
    """Every tests/lint fixture must trigger exactly its declared rules, and
    every rule in RULES must be hit by some fixture."""
    fixture_dir = os.path.join(REPO_ROOT, "tests", "lint")
    # tests/lint/taint holds bftaint's fixtures: lexical inputs that carry
    # log/stream sinks on purpose and are never compiled.
    taint_dir = os.path.join(fixture_dir, "taint") + os.sep
    fixtures = [p for p in collect_sources([fixture_dir])
                if not p.startswith(taint_dir)]
    if not fixtures:
        print(f"bflint: no fixtures under {fixture_dir}", file=sys.stderr)
        return 1
    failures = 0
    covered: set[str] = set()
    for path in fixtures:
        with open(path, encoding="utf-8") as f:
            raw = f.read()
        expected: set[str] = set()
        for m in EXPECT_RE.finditer(raw):
            expected.update(r.strip() for r in m.group(1).split(","))
        got = {f.rule for f in lint_file(path, fixture_mode=True)}
        if got != expected:
            failures += 1
            print(f"selftest FAIL {relpath(path)}: expected "
                  f"{sorted(expected) or '[]'}, got {sorted(got) or '[]'}")
        else:
            covered |= got
            print(f"selftest ok   {relpath(path)}: {sorted(got) or 'clean'}")
    for rule in RULES:
        if rule not in covered:
            failures += 1
            print(f"selftest FAIL rule '{rule}': no passing fixture hits it")
    if failures:
        print(f"bflint selftest: {failures} check(s) failed")
        return 1
    print(f"bflint selftest: {len(fixtures)} fixtures ok")
    return 0


def main(argv: list[str]) -> int:
    if "--selftest" in argv:
        return selftest()
    as_json = "--json" in argv
    roots = [a for a in argv if a != "--json"]
    roots = roots or [os.path.join(REPO_ROOT, "src")]
    findings: list[Finding] = []
    files = collect_sources(roots)
    for path in files:
        findings.extend(lint_file(path))
    if as_json:
        print(json.dumps({"tool": "bflint",
                          "files": len(files),
                          "findings": [f.to_json() for f in findings]},
                         indent=2))
        return 1 if findings else 0
    for finding in findings:
        print(finding)
    if findings:
        print(f"bflint: {len(findings)} finding(s) in {len(files)} files")
        return 1
    print(f"bflint: clean ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

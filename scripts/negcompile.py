#!/usr/bin/env python3
"""negcompile -- negative-compile harness for the sec type layer.

Each fixture in tests/negative_compile encodes one leak shape that
src/sec/sensitive.h must make a COMPILE ERROR (streaming sensitive text
into a log, converting it back to std::string/string_view, dropping it
into an audit field, calling the test declassifier from production code).
For every fixture the harness asserts BOTH directions:

  1. compiled as-is, the fixture MUST FAIL, and its diagnostics MUST match
     the fixture's `// nc-expect: <regex>` line (Python re.search over the
     compiler's stderr) — the type layer rejects the leak for the reason
     the fixture names, not for a typo elsewhere. A fixture without an
     nc-expect line fails;
  2. compiled with its control flag (default -DBF_NC_CONTROL, overridable
     per fixture with a `// nc-control-flags: ...` comment), it MUST
     SUCCEED — proving the fixture is otherwise well-formed C++.

Usage:
  scripts/negcompile.py --compiler g++ [--std c++20] [-I dir]... [fixture...]

Exit status: 0 when every fixture behaves, 1 otherwise.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURE_DIR = os.path.join(REPO_ROOT, "tests", "negative_compile")

CONTROL_RE = re.compile(r"//\s*nc-control-flags:\s*(.+)")
EXPECT_RE = re.compile(r"//\s*nc-expect:\s*(.+)")


def run_compiler(compiler: str, std: str, includes: list[str], path: str,
                 extra: list[str]) -> tuple[int, str]:
    cmd = [compiler, f"-std={std}", "-fsyntax-only", "-Wall"]
    for inc in includes:
        cmd += ["-I", inc]
    cmd += extra + [path]
    # The C locale keeps diagnostics in plain ASCII quotes for nc-expect.
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          env=dict(os.environ, LC_ALL="C"))
    return proc.returncode, proc.stderr


def main(argv: list[str]) -> int:
    compiler = "c++"
    std = "c++20"
    includes: list[str] = []
    fixtures: list[str] = []
    it = iter(argv)
    for arg in it:
        if arg == "--compiler":
            compiler = next(it)
        elif arg == "--std":
            std = next(it)
        elif arg == "-I":
            includes.append(next(it))
        else:
            fixtures.append(arg)
    if not includes:
        includes = [os.path.join(REPO_ROOT, "src")]
    if not fixtures:
        fixtures = sorted(
            os.path.join(FIXTURE_DIR, f)
            for f in os.listdir(FIXTURE_DIR)
            if f.endswith(".cpp"))
    if not fixtures:
        print(f"negcompile: no fixtures under {FIXTURE_DIR}", file=sys.stderr)
        return 1

    failures = 0
    for path in fixtures:
        rel = os.path.relpath(path, REPO_ROOT)
        with open(path, encoding="utf-8") as f:
            source = f.read()
        m = CONTROL_RE.search(source)
        control = m.group(1).split() if m else ["-DBF_NC_CONTROL"]
        m = EXPECT_RE.search(source)
        if m is None:
            failures += 1
            print(f"FAIL {rel}: no `// nc-expect: <regex>` line naming the "
                  "diagnostic the fixture must produce")
            continue
        expect = m.group(1).strip()

        code, stderr = run_compiler(compiler, std, includes, path, [])
        if code == 0:
            failures += 1
            print(f"FAIL {rel}: compiled cleanly — the leak shape is "
                  "no longer rejected by the type layer")
            continue
        if re.search(expect, stderr) is None:
            failures += 1
            print(f"FAIL {rel}: rejected, but no diagnostic matches "
                  f"nc-expect /{expect}/ — the error is not the guarded "
                  f"line:\n{stderr.strip()[:2000]}")
            continue

        code, stderr = run_compiler(compiler, std, includes, path, control)
        if code != 0:
            failures += 1
            print(f"FAIL {rel}: control build ({' '.join(control)}) did not "
                  f"compile — fixture is broken beyond the guarded line:\n"
                  f"{stderr.strip()[:2000]}")
            continue

        print(f"ok   {rel}: rejected bare (/{expect}/), accepted with "
              f"{' '.join(control)}")

    if failures:
        print(f"negcompile: {failures} fixture(s) failed")
        return 1
    print(f"negcompile: {len(fixtures)} fixtures ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

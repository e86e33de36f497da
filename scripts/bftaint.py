#!/usr/bin/env python3
"""bftaint -- BrowserFlow's sensitivity data-flow lint.

The sec type layer (src/sec/sensitive.h) makes it a COMPILE error to pass
a SensitiveText/SensitiveView where a std::string / std::string_view is
expected, so raw document content cannot reach a log, metric, audit or
wire sink by accident. The deliberate escape hatch is `.raw()`, which the
pipeline internals need (fingerprint kernels, normalizers). This lint
closes the loop: it tracks every value derived from `.raw()` (or from a
Sensitive-returning function) THROUGH assignments, aliases, concatenation
and local helper calls, and fails the build when such a value reaches a
sink that leaves the process:

  sinks   BF_LOG streams, printf/fprintf/puts and std::cout/std::cerr/
          std::clog streams, audit appends (audit().append / audit_.append)
          and record literals (AuditRecord{...} / AuditRecord rec{...}),
          flight-recorder previews (.contentPreview =), and cloud transport
          payload setters (.body =, .payload =, setBody().

  gates   named declassifiers whose OUTPUT is safe by construction:
          sec::redact (edge chars + length), sec::contentHash /
          util::fnv1a64 (one-way hash), fingerprintText /
          fingerprintTextReference / fingerprintOf (winnowed hash sets),
          Sealer::seal (ciphertext), sec::declassifyForTest (test-only;
          compiled out of production), plus the scalar observers
          .size() / .length() / .empty().

  NOT gates  text::normalize and segmentParagraphs: their output is still
          readable content, so taint flows through them.

The analysis is lexical and intra-TU (the toolchain here has no clang),
statement-level to a fixpoint, with per-function summaries so a local
helper that forwards its argument to a sink taints its call sites. That
makes it deliberately imprecise in the safe direction for aliases it can
see, and silent about flows it cannot (pointer indirection, cross-TU
calls) — those are covered by the type layer itself.

The selftest runs the fixtures in tests/lint/taint. A fixture that expects
taint-to-sink names the sinks its findings hit (`bftaint-sinks:`), and
every SINK_PATTERNS entry must be named by some fixture, so each sink has
a fixture that fails without it.

Usage:
  scripts/bftaint.py [root ...]      # analyze trees/files (default: src)
  scripts/bftaint.py --selftest      # run fixtures in tests/lint/taint
  scripts/bftaint.py --json ...      # machine-readable findings
  scripts/bftaint.py --compdb build/compile_commands.json
                                     # analyze the TUs of a compilation db

Exit status: 0 when clean, 1 when any flow fires (or a selftest
expectation is unmet). Findings print as `path:line: [rule] message`.
"""

from __future__ import annotations

import json
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SOURCE_EXTENSIONS = (".h", ".hpp", ".cc", ".cpp")

RULE = "taint-to-sink"

# Calls that cleanse taint: the value they RETURN is safe to emit.
GATE_CALLS = (
    "redact",
    "contentHash",
    "declassifyForTest",
    "fingerprintText",
    "fingerprintTextReference",
    "fingerprintOf",
    "seal",
    "fnv1a64",
)

# Method calls on a tainted value that yield a harmless scalar.
SCALAR_METHODS = ("size", "length", "empty")

# Functions returning sensitive values: calls to these produce taint even
# without a visible `.raw()`.
TAINT_RETURNING = (
    "declassifyForTest",  # only safe inside tests; in src/bench tools we
                          # still treat its result as content
)

# A statement containing one of these sinks must not also carry taint.
SINK_PATTERNS = [
    (re.compile(r"\bBF_LOG\s*\("), "BF_LOG stream"),
    (re.compile(r"\b(?:std\s*::\s*)?(?:printf|fprintf|puts|fputs)\s*\("),
     "stdio output"),
    (re.compile(r"\bstd\s*::\s*(?:cout|cerr|clog)\b"), "std stream"),
    (re.compile(r"\baudit(?:_|\s*\(\s*\))\s*\.\s*append\s*\("),
     "audit record"),
    (re.compile(r"\bAuditRecord\s*(?:[A-Za-z_]\w*\s*)?\{"),
     "audit record literal"),
    (re.compile(r"\.\s*contentPreview\s*="), "flight-recorder preview"),
    (re.compile(r"\.\s*(?:body|payload)\s*=|\.\s*setBody\s*\("),
     "wire payload"),
]

IDENT = r"[A-Za-z_]\w*"

_STRIP_RE = re.compile(
    r"//[^\n]*"
    r"|/\*.*?\*/"
    r'|"(?:\\.|[^"\\\n])*"'
    r"|'(?:\\.|[^'\\\n])*'",
    re.DOTALL,
)


def strip_comments_and_strings(text: str) -> str:
    """Blanks comments/strings, preserving newlines so line numbers hold."""
    def blank(match: re.Match) -> str:
        return re.sub(r"[^\n]", " ", match.group(0))

    return _STRIP_RE.sub(blank, text)


def relpath(path: str) -> str:
    return os.path.relpath(os.path.abspath(path), REPO_ROOT).replace(
        os.sep, "/")


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str,
                 severity: str = "error", sinks: tuple[str, ...] = ()):
        self.path, self.line, self.rule = path, line, rule
        self.message, self.severity = message, severity
        self.sinks = sinks  # every sink the flagged statement reaches

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def to_json(self) -> dict:
        return {"file": self.path, "line": self.line, "rule": self.rule,
                "severity": self.severity, "message": self.message}


# ---- expression-level taint ------------------------------------------------

_GATE_CALL_RE = re.compile(
    r"(?:\b\w+\s*::\s*)*\b(?:" + "|".join(GATE_CALLS) + r")\s*\(")
_SCALAR_RE = re.compile(
    r"\.\s*(?:" + "|".join(SCALAR_METHODS) + r")\s*\(\s*\)")
_RAW_RE = re.compile(r"\.\s*raw\s*\(\s*\)")


def _erase_balanced(text: str, open_idx: int) -> str:
    """Blanks from the '(' at open_idx through its matching ')'."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return text[:open_idx] + " " * (i + 1 - open_idx) + text[i + 1:]
    return text[:open_idx] + " " * (len(text) - open_idx)


def neutralize_gates(expr: str) -> str:
    """Removes gate calls (with their arguments) and scalar observers.

    Whatever taint sat inside a redact(...) / contentHash(...) / .size()
    has been declassified; the remainder is what must still be judged.
    """
    while True:
        m = _GATE_CALL_RE.search(expr)
        if m is None:
            break
        open_idx = expr.index("(", m.start())
        expr = expr[:m.start()] + " " * (open_idx - m.start()) + \
            expr[m.start():]
        expr = _erase_balanced(expr, open_idx)
    # `x.size()` neutralizes the whole chain ending in the scalar: blank the
    # receiver identifier/chain immediately before it too.
    while True:
        m = _SCALAR_RE.search(expr)
        if m is None:
            break
        start = m.start()
        i = start
        while i > 0 and (expr[i - 1].isalnum() or expr[i - 1] in "_]).:"):
            i -= 1
        expr = expr[:i] + " " * (m.end() - i) + expr[m.end():]
    return expr


def expr_is_tainted(expr: str, tainted: set[str],
                    taint_fns: set[str]) -> bool:
    expr = neutralize_gates(expr)
    if _RAW_RE.search(expr):
        # .raw() only exists on sec::SensitiveText/View: any surviving use
        # is sensitive content escaping the wrapper.
        return True
    for ident in re.findall(IDENT, expr):
        if ident in tainted:
            return True
    for fn in taint_fns:
        if re.search(r"\b" + re.escape(fn) + r"\s*\(", expr):
            return True
    return False


# ---- function extraction ----------------------------------------------------

_FN_HEADER_DISALLOW = re.compile(
    r"^\s*(?:namespace|struct|class|enum|union|if|for|while|switch|catch|"
    r"do|else|try)\b")

_SENSITIVE_PARAM_RE = re.compile(
    r"(?:\bsec\s*::\s*)?\bSensitive(?:Text|View)\b[^,()]*?\b(" + IDENT +
    r")\s*(?:,|\)|=)")

_SENSITIVE_DECL_RE = re.compile(
    r"(?:\bsec\s*::\s*)?\bSensitive(?:Text|View)\b(?:\s*[&*]|\s)\s*(" +
    IDENT + r")\b")

_FN_NAME_RE = re.compile(r"\b(" + IDENT + r")\s*\($")


class Function:
    def __init__(self, name: str, header: str, body: str, line: int,
                 params: list[str]):
        self.name = name
        self.header = header
        self.body = body
        self.line = line          # 1-based line of the opening brace
        self.params = params      # parameter names, in order


def extract_functions(code: str) -> list[Function]:
    """Finds top-level-ish function bodies by brace matching.

    Nested lambdas stay part of the enclosing body on purpose: their
    captures alias the enclosing scope, which is exactly what the taint
    set models.
    """
    functions: list[Function] = []
    i, n = 0, len(code)
    depth_openers: list[str] = []  # what each open brace belonged to
    while i < n:
        ch = code[i]
        if ch != "{":
            i += 1
            continue
        # Header: text since the previous ; { or } at this nesting level.
        j = i - 1
        while j >= 0 and code[j] not in ";{}":
            j -= 1
        header = code[j + 1:i].strip()
        is_fn = (
            "(" in header and ")" in header
            and not _FN_HEADER_DISALLOW.match(header)
            and not header.rstrip().endswith(("=", ","))
            and not re.search(r"\breturn\b", header)
        )
        if not is_fn:
            i += 1
            continue
        # Find the matching close brace.
        depth = 0
        k = i
        while k < n:
            if code[k] == "{":
                depth += 1
            elif code[k] == "}":
                depth -= 1
                if depth == 0:
                    break
            k += 1
        body = code[i + 1:k]
        line = code.count("\n", 0, i) + 1
        paren = header.rfind("(")
        name_m = re.search(r"\b(" + IDENT + r")\s*$",
                           header[:paren].replace("::", " "))
        name = name_m.group(1) if name_m else "<anon>"
        params = []
        for pm in re.finditer(r"[(,]\s*([^,()]+?)\s*(?=[,)])",
                              header[paren:] if paren >= 0 else ""):
            words = re.findall(IDENT, pm.group(1))
            if len(words) >= 2:   # "type name" at minimum
                params.append(words[-1])
        functions.append(Function(name, header, body, line, params))
        i = k + 1
    return functions


# ---- per-function analysis ---------------------------------------------------

# Assigning to a member (`x.m = ...`, `x->m += ...`) taints the object `x`.
_ASSIGN_RE = re.compile(
    r"(?:^|[;{}]|\bfor\s*\()\s*"
    r"(?:[\w:<>,&*\s]+?\s)?"          # optional decl type
    r"[&*]?(" + IDENT + r")(?:\s*(?:\.|->)\s*" + IDENT + r")*\s*"
    r"(?:=(?!=)|\+=)\s*(.+)", re.DOTALL)

_RANGE_FOR_RE = re.compile(
    r"for\s*\(\s*[\w:<>,&*\s]+?\b(" + IDENT + r")\s*:\s*([^)]+)\)")


# Words after which a `{` opens a block, not a brace-initialiser.
_BLOCK_KEYWORDS = frozenset(
    ("else", "do", "try", "mutable", "noexcept", "const", "override"))


def _opens_initializer(body: str, brace: int) -> bool:
    """True when the `{` at `brace` starts a brace-initialiser.

    `T{`, `T name{`, `= {`, `({`, `, {` and `return {` sit inside an
    expression; a `{` after `)`, `]`, `;`, `:`, another block brace or a
    block keyword opens a block.
    """
    j = brace - 1
    while j >= 0 and body[j].isspace():
        j -= 1
    if j < 0 or body[j] in ");{}:]":
        return False
    if body[j].isalnum() or body[j] == "_":
        k = j
        while k >= 0 and (body[k].isalnum() or body[k] == "_"):
            k -= 1
        return body[k + 1:j + 1] not in _BLOCK_KEYWORDS
    return True


def split_statements(body: str, base_line: int) -> list[tuple[int, str]]:
    """Splits on `;` and block braces; a brace-initialiser stays inside its
    statement. Each statement carries the line of its first character."""
    out: list[tuple[int, str]] = []
    braces: list[bool] = []  # per open brace: is it an initialiser?
    start = 0

    def emit(end: int) -> None:
        text = body[start:end]
        if text.strip():
            first = start + len(text) - len(text.lstrip())
            out.append((base_line + body.count("\n", 0, first), text.strip()))

    for i, ch in enumerate(body):
        if ch == "{":
            braces.append(bool(braces and braces[-1]) or
                          _opens_initializer(body, i))
            if braces[-1]:
                continue
        elif ch == "}":
            if braces and braces.pop():
                continue
        elif ch != ";":
            continue
        emit(i)
        start = i + 1
    emit(len(body))
    return out


def analyze_function(fn: Function, taint_fns: set[str],
                     sink_fns: set[str], rel: str) -> tuple[list[Finding],
                                                            bool, bool]:
    """Returns (findings, any_param_reaches_sink, returns_taint)."""
    tainted: set[str] = set()
    for m in _SENSITIVE_PARAM_RE.finditer(fn.header):
        tainted.add(m.group(1))
    # Parameter-origin names: used for the summary (param -> sink).
    param_seed = set(tainted)
    # Conservative: when computing summaries we also treat ALL parameters
    # of plain string type as potential taint carriers (a helper like
    # logIt(const std::string&) called with doc.raw() leaks).
    carrier_params = set(fn.params)

    statements = split_statements(fn.body, fn.line)

    def run(seed: set[str]) -> tuple[set[str], list[tuple[int, str, str]]]:
        taint = set(seed)
        hits: list[tuple[int, str, str]] = []
        changed = True
        while changed:
            changed = False
            for _line, stmt in statements:
                for m in _SENSITIVE_DECL_RE.finditer(stmt):
                    if m.group(1) not in taint:
                        taint.add(m.group(1))
                        changed = True
                m = _RANGE_FOR_RE.search(stmt)
                if m and expr_is_tainted(m.group(2), taint, taint_fns):
                    if m.group(1) not in taint:
                        taint.add(m.group(1))
                        changed = True
                m = _ASSIGN_RE.search(stmt)
                if m and expr_is_tainted(m.group(2), taint, taint_fns):
                    if m.group(1) not in taint:
                        taint.add(m.group(1))
                        changed = True
        for line, stmt in statements:
            sinks = tuple(what for pattern, what in SINK_PATTERNS
                          if pattern.search(stmt))
            if sinks:
                if expr_is_tainted(stmt, taint, taint_fns):
                    hits.append((line, sinks[0], sinks))
                continue
            for sfn in sink_fns:
                if re.search(r"\b" + re.escape(sfn) + r"\s*\(", stmt) \
                        and expr_is_tainted(stmt, taint, taint_fns):
                    hits.append((line, f"call to sink helper {sfn}()",
                                 ("sink helper",)))
                    break
        return taint, hits

    _, hits = run(tainted)
    findings = [
        Finding(rel, line,
                RULE,
                f"sensitive data reaches {what} in {fn.name}(); emit "
                "sec::redact()/contentHash()/fingerprint forms instead",
                sinks=sinks)
        for line, what, sinks in hits
    ]

    # Summary: would taint injected via ANY parameter reach a sink?
    param_reaches_sink = False
    if carrier_params:
        _, param_hits = run(param_seed | carrier_params)
        # Only count hits beyond the ones the function already has on its
        # own — those are reported directly above.
        param_reaches_sink = len(param_hits) > len(hits)

    returns_taint = bool(re.search(
        r"(?:\bsec\s*::\s*)?\bSensitive(?:Text|View)\b[^;{(]*$",
        fn.header[:fn.header.rfind("(")])) if "(" in fn.header else False
    return findings, param_reaches_sink, returns_taint


def analyze_file(path: str) -> list[Finding]:
    rel = relpath(path)
    with open(path, encoding="utf-8", errors="replace") as f:
        raw = f.read()
    code = strip_comments_and_strings(raw)
    functions = extract_functions(code)

    taint_fns: set[str] = set(TAINT_RETURNING)
    # Functions declared to return Sensitive values taint their call sites.
    for m in re.finditer(
            r"(?:\bsec\s*::\s*)?\bSensitive(?:Text|View)\b[&\s]+(?:\w+\s*::\s*)?"
            r"(" + IDENT + r")\s*\(", code):
        taint_fns.add(m.group(1))

    # Fixpoint over function summaries: a helper whose parameter reaches a
    # sink becomes a sink itself at its call sites.
    sink_fns: set[str] = set()
    findings: list[Finding] = []
    for _round in range(4):
        findings = []
        new_sinks = set(sink_fns)
        for fn in functions:
            fn_findings, param_leaks, _ = analyze_function(
                fn, taint_fns, sink_fns, rel)
            findings.extend(fn_findings)
            if param_leaks and fn.name != "<anon>":
                new_sinks.add(fn.name)
        if new_sinks == sink_fns:
            break
        sink_fns = new_sinks

    # Deduplicate (fixpoint rounds can re-report the same line).
    seen: set[tuple[int, str]] = set()
    unique: list[Finding] = []
    for f in sorted(findings, key=lambda f: f.line):
        key = (f.line, f.message)
        if key not in seen:
            seen.add(key)
            unique.append(f)
    return unique


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


def sources_from_compdb(path: str) -> list[str]:
    """TU list of a compile_commands.json (headers ride along via TUs)."""
    with open(path, encoding="utf-8") as f:
        db = json.load(f)
    files: list[str] = []
    for entry in db:
        src = entry.get("file", "")
        if src.endswith(SOURCE_EXTENSIONS) and os.path.exists(src):
            files.append(src)
    return sorted(set(files))


EXPECT_RE = re.compile(
    r"//\s*bftaint-expect:\s*([a-z0-9-]+(?:\s*,\s*[a-z0-9-]+)*)")
SINKS_RE = re.compile(r"//\s*bftaint-sinks:\s*([^\n]+)")


def selftest() -> int:
    """Every tests/lint/taint fixture must trigger exactly its rules and
    sinks, and every SINK_PATTERNS entry must be hit by some fixture."""
    fixture_dir = os.path.join(REPO_ROOT, "tests", "lint", "taint")
    fixtures = collect_sources([fixture_dir])
    if not fixtures:
        print(f"bftaint: no fixtures under {fixture_dir}", file=sys.stderr)
        return 1
    failures = 0
    covered: set[str] = set()
    for path in fixtures:
        with open(path, encoding="utf-8") as f:
            raw = f.read()
        expected: set[str] = set()
        for m in EXPECT_RE.finditer(raw):
            expected.update(r.strip() for r in m.group(1).split(","))
        expected_sinks: set[str] = set()
        for m in SINKS_RE.finditer(raw):
            expected_sinks.update(s.strip() for s in m.group(1).split(","))
        findings = analyze_file(path)
        got = {f.rule for f in findings}
        got_sinks = {s for f in findings for s in f.sinks}
        if got != expected or got_sinks != expected_sinks:
            failures += 1
            print(f"selftest FAIL {relpath(path)}: expected "
                  f"{sorted(expected) or '[]'} via "
                  f"{sorted(expected_sinks) or '[]'}, got "
                  f"{sorted(got) or '[]'} via {sorted(got_sinks) or '[]'}")
        else:
            covered |= got_sinks
            print(f"selftest ok   {relpath(path)}: {sorted(got) or 'clean'}"
                  + (f" via {sorted(got_sinks)}" if got_sinks else ""))
    for _pattern, what in SINK_PATTERNS:
        if what not in covered:
            failures += 1
            print(f"selftest FAIL sink '{what}': no passing fixture hits it")
    if failures:
        print(f"bftaint selftest: {failures} check(s) failed")
        return 1
    print(f"bftaint selftest: {len(fixtures)} fixtures ok")
    return 0


def main(argv: list[str]) -> int:
    as_json = False
    compdb: str | None = None
    roots: list[str] = []
    it = iter(argv)
    for arg in it:
        if arg == "--selftest":
            return selftest()
        if arg == "--json":
            as_json = True
        elif arg == "--compdb":
            compdb = next(it, None)
            if compdb is None:
                print("bftaint: --compdb needs a path", file=sys.stderr)
                return 2
        else:
            roots.append(arg)

    if compdb is not None:
        files = sources_from_compdb(compdb)
    else:
        files = collect_sources(roots or [os.path.join(REPO_ROOT, "src")])

    findings: list[Finding] = []
    for path in files:
        findings.extend(analyze_file(path))

    if as_json:
        print(json.dumps({"tool": "bftaint",
                          "files": len(files),
                          "findings": [f.to_json() for f in findings]},
                         indent=2))
    else:
        for finding in findings:
            print(finding)
        if findings:
            print(f"bftaint: {len(findings)} finding(s) in {len(files)} files")
        else:
            print(f"bftaint: clean ({len(files)} files)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

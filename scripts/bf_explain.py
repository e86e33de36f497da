#!/usr/bin/env python3
"""bf_explain -- pretty-print flight-recorder decision traces.

Reads the `bf-flight-v1` JSON that src/obs/export.cpp renders from the
decision flight recorder (obs::toJson(obs::FlightRecorder::instance()))
and prints each decision as a human-readable causal record: ingress →
per-stage latency → verdict, with the matched sources and the scores that
drove the verdict.

Usage:
    bf_explain.py flight.json              # all retained decisions
    bf_explain.py --decision 42 flight.json
    bf_explain.py --trace 0x9a3f... flight.json
    some_tool --dump-flight | bf_explain.py -

See the README's "Explaining a decision" walkthrough and
examples/explain_decision.cpp for producing the input.
"""

from __future__ import annotations

import argparse
import json
import sys

STAGE_ORDER = [
    "fingerprint", "tracker_lock_wait", "tracker_lookup", "tracker_record",
    "policy_eval", "secret_scan", "wal_append",
]


def fmt_us(nanos: int) -> str:
    return f"{nanos / 1000.0:10.1f} us"


def fmt_trace_id(value: int) -> str:
    return f"0x{value:016x}"


def parse_trace_id(text: str) -> int:
    return int(text, 16) if text.lower().startswith("0x") else int(text)


def explain_decision(d: dict, out) -> None:
    verdict = d.get("action", "?")
    flags = []
    if d.get("violation"):
        flags.append("VIOLATION")
    if d.get("durability_degraded"):
        flags.append("DURABILITY-DEGRADED")
    headline = f"decision #{d.get('decision_id')}  ->  {verdict}"
    if flags:
        headline += "  [" + ", ".join(flags) + "]"
    print(headline, file=out)
    print(f"  trace   {fmt_trace_id(d.get('trace_id', 0))}"
          f"  sampled={str(bool(d.get('sampled'))).lower()}", file=out)
    print(f"  ingress {d.get('ingress', '?')}", file=out)
    print(f"  what    segment={d.get('segment', '?')}"
          f"  document={d.get('document', '?')}", file=out)
    print(f"  where   service={d.get('service', '?')}"
          f"  bytes_scanned={d.get('bytes_scanned', 0)}", file=out)

    stages = d.get("stages", {})
    timed = [(name, stages.get(f"{name}_ns", 0)) for name in STAGE_ORDER]
    timed = [(name, ns) for name, ns in timed if ns]
    if timed:
        total = sum(ns for _, ns in timed)
        print("  stages", file=out)
        for name, ns in timed:
            share = ns / total * 100.0
            print(f"    {name:<18}{fmt_us(ns)}  {share:5.1f}%", file=out)
        print(f"    {'total':<18}{fmt_us(total)}"
              f"  (end-to-end {d.get('total_ms', 0.0):.3f} ms)", file=out)

    hits = d.get("hits", [])
    if hits:
        print("  matched sources (score vs threshold)", file=out)
        for h in hits:
            mark = ">=" if h.get("score", 0) >= h.get("threshold", 0) else "< "
            print(f"    {h.get('source', '?'):<40}"
                  f" {h.get('score', 0):6.3f} {mark} {h.get('threshold', 0):.3f}"
                  f"  overlap={h.get('overlap', 0)}", file=out)
    if d.get("violating_tags"):
        print(f"  violating tags  {', '.join(d['violating_tags'])}", file=out)
    if d.get("labels_consulted"):
        print(f"  labels consulted  {', '.join(d['labels_consulted'])}",
              file=out)
    if d.get("secret_hits"):
        print(f"  secret scanner  {', '.join(d['secret_hits'])}", file=out)
    print(file=out)


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("input", help="bf-flight-v1 JSON file, or '-' for stdin")
    ap.add_argument("--decision", type=int,
                    help="only the record with this decision id")
    ap.add_argument("--trace",
                    help="only records of this trace id (hex 0x... or decimal)")
    args = ap.parse_args()

    text = sys.stdin.read() if args.input == "-" else open(args.input).read()
    data = json.loads(text)
    if data.get("schema") != "bf-flight-v1":
        print(f"bf_explain: unexpected schema {data.get('schema')!r} "
              "(want bf-flight-v1)", file=sys.stderr)
        return 1

    decisions = data.get("decisions", [])
    if args.decision is not None:
        decisions = [d for d in decisions
                     if d.get("decision_id") == args.decision]
        if not decisions:
            print(f"bf_explain: decision {args.decision} not in the ring "
                  "(evicted, never retained, or wrong file)", file=sys.stderr)
            return 1
    if args.trace is not None:
        want = parse_trace_id(args.trace)
        decisions = [d for d in decisions if d.get("trace_id") == want]
        if not decisions:
            print(f"bf_explain: no records for trace {args.trace}",
                  file=sys.stderr)
            return 1

    for d in decisions:
        explain_decision(d, sys.stdout)
    print(f"{len(decisions)} decision(s) shown, "
          f"{len(data.get('decisions', []))} retained in the ring")
    return 0


if __name__ == "__main__":
    sys.exit(main())

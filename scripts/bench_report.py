#!/usr/bin/env python3
"""Run the bench suite and write a machine-readable trajectory file.

Produces BENCH_PR4.json: per-bench throughput / latency series plus the
peak RSS of each bench process, so performance PRs carry their numbers in
the repo instead of in prose. Two result channels are understood:

  * google-benchmark JSON (--benchmark_format=json) for the micro benches;
  * "RESULT {...json...}" lines on stdout for the figure/stress harnesses
    (see bench::result in bench/bench_util.h).

Usage:
    scripts/bench_report.py [--build-dir build] [--out BENCH_PR4.json]
                            [--baseline before.json] [--quick]

--baseline merges a previous report under the "baseline" key so the file
records the before/after pair. --quick trims iteration counts (used by
scripts/check.sh when BF_CHECK_BENCH=1) — numbers are noisier but the
wiring is exercised end to end.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import time


def run_child(cmd, env=None):
    """Runs `cmd`, returning (stdout, wall_seconds, peak_rss_bytes).

    Peak RSS comes from os.wait4's rusage (ru_maxrss is KiB on Linux), so
    it measures the bench process itself, not this script.
    """
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    start = time.monotonic()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=full_env
    )
    out = proc.stdout.read().decode("utf-8", "replace")
    _, status, rusage = os.wait4(proc.pid, 0)
    wall = time.monotonic() - start
    if status != 0:
        sys.stderr.write(out)
        raise RuntimeError(f"{cmd[0]} exited with status {status}")
    return out, wall, rusage.ru_maxrss * 1024


def parse_result_lines(stdout):
    """Extracts the `RESULT {...}` objects a bench printed."""
    results = []
    for line in stdout.splitlines():
        if line.startswith("RESULT "):
            try:
                results.append(json.loads(line[len("RESULT "):]))
            except json.JSONDecodeError:
                sys.stderr.write(f"unparseable RESULT line: {line}\n")
    return results


def run_micro(build_dir, quick, repeats=1):
    """bench_micro_fingerprint via google-benchmark's JSON reporter.

    Full (non-quick) runs take the best of max(3, repeats) invocations per
    benchmark — highest throughput, lowest times — the same
    least-interference estimator run_results_bench applies to the stress
    benches: on a loaded single-core host a lone google-benchmark mean
    swings with scheduler luck, which a kernel-speedup gate would
    otherwise inherit. --stress-repeats raises the floor uniformly for
    every gated series, not just the stress bench.
    """
    binary = os.path.join(build_dir, "bench", "bench_micro_fingerprint")
    cmd = [binary, "--benchmark_format=json"]
    if quick:
        cmd.append(
            "--benchmark_filter=BM_Fingerprint(Text|TextReference|"
            "TextFusedWorkspace)/16384"
        )
    best = {}
    order = []
    wall_total = 0.0
    rss_peak = 0
    context = {}
    for _ in range(1 if quick else max(3, repeats)):
        out, wall, rss = run_child(cmd)
        wall_total += wall
        rss_peak = max(rss_peak, rss)
        data = json.loads(out)
        context = data.get("context", {})
        for b in data.get("benchmarks", []):
            entry = {
                "name": b["name"],
                "real_time_ns": b.get("real_time"),
                "cpu_time_ns": b.get("cpu_time"),
            }
            if "bytes_per_second" in b:
                entry["mb_per_s"] = b["bytes_per_second"] / 1e6
            prev = best.get(b["name"])
            if prev is None:
                best[b["name"]] = entry
                order.append(b["name"])
            else:
                for field in ("real_time_ns", "cpu_time_ns"):
                    if prev.get(field) and entry.get(field):
                        prev[field] = min(prev[field], entry[field])
                if "mb_per_s" in prev and "mb_per_s" in entry:
                    prev["mb_per_s"] = max(prev["mb_per_s"],
                                           entry["mb_per_s"])
    return {
        "benchmarks": [best[name] for name in order],
        "wall_s": round(wall_total, 2),
        "peak_rss_bytes": rss_peak,
        "context": {
            k: context.get(k)
            for k in ("num_cpus", "mhz_per_cpu", "library_build_type")
        },
    }


def run_results_bench(binary, env, quick_env, repeats=1):
    """Runs a RESULT-line bench, optionally `repeats` times.

    With repeats > 1 the runs are merged per metric: throughput-style
    numbers (decisions_per_s, goodput_per_s, observes_per_s) keep their
    MAX across runs, measured-overhead percentages keep their MIN — the
    least-interference estimate of what the machine can actually do.
    On a single-core container a lone sample swings ±30% with scheduler
    luck; best-of-N is the same noise-control philosophy as the
    provenance phase's interleaved min-estimator, one level up.
    """
    def result_key(r):
        # Every dimension a bench sweeps must appear here or rows from
        # different sweep points merge into one.
        return (r.get("bench"), r.get("users"), r.get("rate"))

    runs = []
    for _ in range(max(1, repeats)):
        out, wall, rss = run_child([binary], env={**env, **quick_env})
        runs.append((parse_result_lines(out), wall, rss))
    merged = runs[0][0]
    for results, _, _ in runs[1:]:
        by_key = {result_key(r): r for r in results}
        for m in merged:
            r = by_key.get(result_key(m))
            if r is None:
                continue
            for field in ("decisions_per_s", "goodput_per_s",
                          "observes_per_s"):
                if field in m and field in r:
                    m[field] = max(m[field], r[field])
            if "overhead_pct" in m and "overhead_pct" in r:
                m["overhead_pct"] = min(m["overhead_pct"], r["overhead_pct"])
    return {
        "results": merged,
        "wall_s": round(sum(w for _, w, _ in runs), 2),
        "peak_rss_bytes": max(r for _, _, r in runs),
        "repeats": len(runs),
    }


def summarize(report):
    """Derives the headline comparisons the PR's acceptance criteria name."""
    summary = {}
    micro = {
        b["name"]: b
        for b in report.get("micro_fingerprint", {}).get("benchmarks", [])
    }
    ref = micro.get("BM_FingerprintTextReference/16384")
    fused = micro.get("BM_FingerprintTextFusedWorkspace/16384")
    if ref and fused and fused.get("mb_per_s"):
        summary["fingerprint_speedup_vs_reference_16k"] = round(
            fused["mb_per_s"] / ref["mb_per_s"], 2
        )
    summary["hw_cores"] = os.cpu_count()
    faults = [
        r
        for r in report.get("recovery", {}).get("results", [])
        if r.get("bench") == "durability_faults"
    ]
    if faults:
        # Goodput vs injected-fault rate: shows what the self-healing WAL
        # costs under storage pressure (rate 0 = inert FaultVfs control).
        summary["durability_faults"] = {
            f"rate_{r['rate']:g}": {
                "goodput_per_s": round(r["goodput_per_s"]),
                "records_lost": r["records_lost"],
                "repairs": r["repairs"],
            }
            for r in faults
        }
    return summary


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--build-dir", default="build")
    ap.add_argument("--out", default="BENCH_PR4.json")
    ap.add_argument("--baseline", help="previous report to embed for before/after")
    ap.add_argument("--quick", action="store_true",
                    help="reduced iteration counts (check.sh wiring test)")
    ap.add_argument("--skip", default="",
                    help="comma-separated benches to skip "
                         "(micro,fig13,stress,recovery)")
    ap.add_argument("--stress-repeats", type=int, default=1,
                    help="run every gated bench series N times and keep "
                         "the per-metric best (noise control on loaded "
                         "hosts); applies uniformly to micro, fig13, "
                         "stress, and recovery")
    args = ap.parse_args()

    skip = {s for s in args.skip.split(",") if s}
    report = {
        "schema": "bf-bench-report-v1",
        "generated_by": "scripts/bench_report.py",
        "build_dir": args.build_dir,
    }

    if "micro" not in skip:
        print("==> bench_micro_fingerprint", flush=True)
        report["micro_fingerprint"] = run_micro(
            args.build_dir, args.quick, repeats=args.stress_repeats)

    if "fig13" not in skip:
        print("==> bench_fig13_scalability", flush=True)
        quick_env = {"BF_SCALE": "quick"} if args.quick else {}
        report["fig13_scalability"] = run_results_bench(
            os.path.join(args.build_dir, "bench", "bench_fig13_scalability"),
            {}, quick_env, repeats=args.stress_repeats)

    if "stress" not in skip:
        print("==> bench_stress_concurrency", flush=True)
        quick_env = (
            {"BF_STRESS_USERS": "4", "BF_STRESS_DECISIONS": "200"}
            if args.quick else {}
        )
        report["stress_concurrency"] = run_results_bench(
            os.path.join(args.build_dir, "bench", "bench_stress_concurrency"),
            {}, quick_env, repeats=args.stress_repeats)

    if "recovery" not in skip:
        print("==> bench_recovery", flush=True)
        quick_env = {"BF_RECOVERY_SEGMENTS": "500"} if args.quick else {}
        report["recovery"] = run_results_bench(
            os.path.join(args.build_dir, "bench", "bench_recovery"),
            {}, quick_env, repeats=args.stress_repeats)

    report["summary"] = summarize(report)

    if args.baseline:
        with open(args.baseline) as f:
            report["baseline"] = json.load(f)

    with open(args.out, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"==> wrote {args.out}")
    if report["summary"]:
        print(json.dumps(report["summary"], indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

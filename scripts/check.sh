#!/usr/bin/env bash
# Full pre-merge check: lint, then configure/build/test the selected
# presets, sequentially (never overlap two builds in one build dir).
#
#   scripts/check.sh                                  # default + asan
#   BF_CHECK_PRESETS="default" scripts/check.sh       # subset
#   BF_CHECK_PRESETS="default asan ubsan tsan release" scripts/check.sh  # full matrix
#
# This script is where each step is defined: every build-test leg of
# .github/workflows/check.yml runs it with one preset. The default and
# release presets build with -Werror. The tsan preset runs
# the concurrency-relevant tests under ThreadSanitizer and then the
# bench_stress_concurrency binary (a short configuration), so the lock
# migration is exercised under real contention, not just unit load. The
# release preset then checks every pinned verdict digest in
# scripts/e2e_verdict_digests.txt, with the host's best fingerprint kernel
# and with the scalar kernel, and runs the fixed-seed HashDb model step
# that the default and asan presets run too.
set -euo pipefail

cd "$(dirname "$0")/.."

PRESETS=${BF_CHECK_PRESETS:-"default asan"}
JOBS=${BF_CHECK_JOBS:-$(nproc 2>/dev/null || echo 4)}

echo "==> [lint] bflint self-test"
python3 scripts/bflint.py --selftest
echo "==> [lint] bflint over src/ bench/ examples/"
python3 scripts/bflint.py src bench examples
echo "==> [lint] bftaint self-test"
python3 scripts/bftaint.py --selftest
echo "==> [lint] bftaint over src/ bench/ examples/"
python3 scripts/bftaint.py src bench examples
echo "==> [lint] negative-compile harness (sec type layer)"
python3 scripts/negcompile.py --compiler "${CXX:-c++}" --std c++20 -I src

for preset in $PRESETS; do
  echo "==> [$preset] configure"
  if [ "$preset" = "default" ] || [ "$preset" = "release" ]; then
    cmake --preset "$preset" -DCMAKE_CXX_FLAGS=-Werror
  else
    cmake --preset "$preset"
  fi
  echo "==> [$preset] build"
  cmake --build --preset "$preset" -j "$JOBS"
  echo "==> [$preset] test"
  ctest --preset "$preset"
  if [ "$preset" = "tsan" ]; then
    echo "==> [tsan] bench_stress_concurrency under ThreadSanitizer"
    BF_STRESS_USERS=8 BF_STRESS_DECISIONS=50 \
      "build-tsan/bench/bench_stress_concurrency"
  fi
  if [ "$preset" = "release" ]; then
    for force_scalar in "" 1; do
      echo "==> [release] pinned verdict digests, BF_FORCE_SCALAR_KERNEL='$force_scalar'"
      while read -r workload seed expected; do
        case "$workload" in ''|'#'*) continue ;; esac
        out=$(BF_FORCE_SCALAR_KERNEL="$force_scalar" python3 e2ebench/run.py \
          --workload "$workload" --seed "$seed" --seconds 1 --trace 0 \
          < /dev/null) || { echo "$out"; exit 1; }
        got=$(echo "$out" | sed -n 's/^# verdict digest: \([0-9a-f]*\) .*/\1/p')
        if [ "$got" != "$expected" ]; then
          echo "$out"
          echo "error: $workload seed $seed BF_FORCE_SCALAR_KERNEL='$force_scalar'" \
            "verdict digest '$got', pinned '$expected'" \
            "(scripts/e2e_verdict_digests.txt)" >&2
          exit 1
        fi
        echo "$workload seed $seed: $got"
      done < scripts/e2e_verdict_digests.txt
    done
  fi
  if [ "$preset" = "default" ] || [ "$preset" = "asan" ] ||
     [ "$preset" = "release" ]; then
    # HashDb reference model at a pinned seed: 1000 seeded sessions of
    # records, restores, re-observations and removals checked against the
    # naive model. Under release too: the benchmark measures the -O3 build,
    # whose code for the in-place slot walk and the prefetched batch loops
    # differs from the default build's.
    flowBin="build/tests/flow_test"
    if [ "$preset" != "default" ]; then flowBin="build-$preset/tests/flow_test"; fi
    echo "==> [$preset] HashDb reference model, fixed seed"
    BF_HASHDB_MODEL_SEED=20261020 BF_HASHDB_MODEL_TRIALS=1000 \
      "$flowBin" \
      --gtest_filter='HashDbModel.RandomSessionsMatchReferenceModel'
  fi
  if [ "$preset" = "default" ] || [ "$preset" = "asan" ]; then
    # Crash-recovery fuzz at a pinned seed: the same 500 corruption trials
    # on every machine and every run, so a red leg is a real regression in
    # the WAL/checkpoint recovery path, never fuzz luck (ctest already runs
    # the default configuration; this leg pins it explicitly). Under asan
    # too: replay and compaction rebuild HashDb's spilled histories.
    bin="build/tests/recovery_fuzz_test"
    if [ "$preset" = "asan" ]; then bin="build-asan/tests/recovery_fuzz_test"; fi
    echo "==> [$preset] recovery fuzz, fixed seed"
    BF_RECOVERY_FUZZ_SEED=20260805 BF_RECOVERY_FUZZ_TRIALS=500 \
      "$bin" \
      --gtest_filter='RecoveryFuzzTest.RecoveredStateIsAlwaysAPrefixOfHistory'
    # Storage chaos at a pinned seed: 300 trials that open a runtime fault
    # window (ENOSPC / torn writes / fsync failures via FaultVfs) mid-run,
    # require the WAL health state machine to self-heal, then crash and
    # demand byte-equal recovery at the last durable sequence.
    echo "==> [$preset] storage chaos, fixed seed"
    BF_STORAGE_FUZZ_SEED=20260809 BF_STORAGE_FUZZ_TRIALS=300 \
      "$bin" \
      --gtest_filter='RecoveryFuzzTest.SelfHealsAfterInjectedStorageFaultWindow'
    # Spliced re-fingerprint at a pinned seed: 2000 edit scripts checked
    # against the full kernel on every tier the host supports.
    textBin="build/tests/text_test"
    if [ "$preset" = "asan" ]; then textBin="build-asan/tests/text_test"; fi
    echo "==> [$preset] spliced re-fingerprint differential, fixed seed"
    BF_REFINGERPRINT_SEED=20261018 BF_REFINGERPRINT_TRIALS=2000 \
      "$textBin" \
      --gtest_filter='Refingerprint.MatchesFullKernelOnSeededEditScripts'
    # Spliced secret scan at a pinned seed: 2000 edit scripts checked
    # against the full scan, match for match.
    coreBin="build/tests/core_test"
    if [ "$preset" = "asan" ]; then coreBin="build-asan/tests/core_test"; fi
    echo "==> [$preset] spliced secret-scan differential, fixed seed"
    BF_SECRET_SPLICE_SEED=20261019 BF_SECRET_SPLICE_TRIALS=2000 \
      "$coreBin" \
      --gtest_filter='SecretGuard.RescanMatchesFullScanOnSeededEditScripts'
  fi
done

# BF_CHECK_BENCH=1 exercises the bench pipeline end to end with a short
# run (noisy numbers, real wiring): every bench must start, emit parseable
# output, and the regression gate must find all its metrics — including
# the provenance-overhead phase — against the newest BENCH_PR*.json
# baseline. Smoke mode checks wiring only; run scripts/bench_gate.py
# without --smoke for the real >10%-regression / <3%-overhead gate.
if [ "${BF_CHECK_BENCH:-0}" = "1" ]; then
  echo "==> [bench] bench_gate.py --smoke"
  python3 scripts/bench_gate.py --smoke --build-dir build
fi

echo "==> all presets green: $PRESETS"

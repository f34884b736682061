#!/usr/bin/env bash
# CI-style gate: one command that reproduces what the repo considers
# "green".  Stages:
#
#   1. configure + build with -DTITANREL_WERROR=ON (the strict
#      -Wall/-Wextra/-Wconversion/-Wsign-conversion wall, warnings fatal)
#   2. the full ctest suite -- unit/integration tests, the titanlint
#      rule-engine tests, and the titanlint_tree lint gate over the tree
#   3. an explicit titanlint run, so lint findings print even when ctest
#      output is folded away
#
# Optional stages:
#
#   --ubsan      add a second build under TITANREL_SANITIZE=undefined
#                (-fno-sanitize-recover=all) and run ctest under it
#   --tsan       add a build under TITANREL_SANITIZE=thread and run the
#                concurrency-bearing suites (titan::par pool, the study
#                pipeline, the sharded out-of-core driver, the
#                determinism gates, and paper_shapes_test -- every paper
#                entry at pool width 4, the only suite that runs
#                filter_events, FailurePredictor, utilization_study and
#                the bootstrap CI there; its ablation case is skipped, as
#                its nine campaigns add ~60 s under TSan and only rerun
#                the simulator determinism_test already covers) under it
#   --corrupt    run the ingest robustness gate: generate a dataset, apply
#                every corruption operator, and run the salvage sweep
#                (bench_ingest_robustness), plus an explicit titanlint
#                det-* pass over src/ingest and src/tdf
#   --crash      run the crash-consistency gate: the differential
#                kill-point sweep over every dataset writer
#                (bench_faulttest_crash: each kill must end in clean
#                salvage or a named failure, each resume byte-identical),
#                plus an explicit titanlint io-atomic pass over the
#                durable-write layers (every git-tracked C++ file under
#                src/study, src/tdf, src/ckpt and src/faulttest)
#   --profiles   run the cross-fleet profile sweep: the profile unit /
#                golden-equivalence / determinism / mismatch test
#                binaries, the profile-matrix bench (full registry under
#                every built-in FleetProfile), and an explicit titanlint
#                det-* pass over the profile layer
#   --perfbench  run the benchmark's self-test (python3 perfbench/selftest.py):
#                it builds perfbench against the current src/ and runs every
#                workload once untraced and once traced, so a src/ change
#                that breaks an API the benchmark calls fails here
#   --bench-json refresh every committed BENCH_*.json perf-trajectory
#                record: bench_tdf_load -> BENCH_dataset.json,
#                bench_campaign_scale -> BENCH_campaign.json and
#                bench_profile_matrix -> BENCH_profile.json
#   --jobs N     parallelism (default: nproc)
#
# Exits non-zero on the first failing stage.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 4)"
UBSAN=0
TSAN=0
CORRUPT=0
CRASH=0
PROFILES=0
PERFBENCH=0
BENCH_JSON=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --ubsan) UBSAN=1 ;;
    --tsan) TSAN=1 ;;
    --corrupt) CORRUPT=1 ;;
    --crash) CRASH=1 ;;
    --profiles) PROFILES=1 ;;
    --perfbench) PERFBENCH=1 ;;
    --bench-json) BENCH_JSON=1 ;;
    --jobs) JOBS="$2"; shift ;;
    *) echo "usage: scripts/check.sh [--ubsan] [--tsan] [--corrupt] [--crash] [--profiles] [--perfbench] [--bench-json] [--jobs N]" >&2; exit 2 ;;
  esac
  shift
done

echo "== configure + build (WERROR) =="
cmake -B build -S . -DTITANREL_WERROR=ON
cmake --build build -j "$JOBS"

echo "== ctest =="
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "== titanlint =="
./build/tools/titanlint --root .

echo "== STREAMS.md freshness (regenerate + diff) =="
./build/tools/titanlint --root . --streams > STREAMS.md
git diff --exit-code -- STREAMS.md

if [[ "$CORRUPT" == 1 ]]; then
  echo "== ingest robustness gate (every corruption operator + salvage sweep) =="
  ./build/bench/bench_ingest_robustness
  echo "== titanlint det-* sweep over src/ingest, the durable-write layers and the sharding layer =="
  # The durable-write layers come from git, so moving writer code between
  # files cannot drop one from the gate.
  mapfile -t DURABLE < <(git ls-files src/study src/tdf src/ckpt src/faulttest | grep -E '\.[ch]pp$')
  ./build/tools/titanlint --root . src/ingest/triage.hpp src/ingest/triage.cpp \
    src/ingest/corrupt.hpp src/ingest/corrupt.cpp \
    src/core/sharded.hpp src/core/sharded.cpp src/fault/campaign.hpp \
    src/fault/campaign.cpp "${DURABLE[@]}"
fi

if [[ "$CRASH" == 1 ]]; then
  echo "== crash-consistency gate (kill-point sweep over every dataset writer) =="
  ./build/bench/bench_faulttest_crash
  echo "== titanlint io-atomic sweep over the durable-write layers =="
  mapfile -t DURABLE < <(git ls-files src/study src/tdf src/ckpt src/faulttest | grep -E '\.[ch]pp$')
  ./build/tools/titanlint --root . "${DURABLE[@]}"
fi

if [[ "$PROFILES" == 1 ]]; then
  echo "== fleet-profile sweep (unit, golden-equivalence, determinism, mismatch) =="
  ./build/tests/profile_test
  ./build/tests/profile_golden_test
  ./build/tests/profile_determinism_test
  ./build/tests/profile_mismatch_test
  echo "== profile matrix bench (full registry under every built-in profile) =="
  ./build/bench/bench_profile_matrix --quick
  echo "== titanlint det-* sweep over the profile layer =="
  ./build/tools/titanlint --root . src/profile/fleet_profile.hpp \
    src/profile/fleet_profile.cpp src/study/comparative.hpp \
    src/study/comparative.cpp src/core/facility.cpp src/study/registry.cpp
fi

if [[ "$PERFBENCH" == 1 ]]; then
  echo "== perfbench self-test (builds the benchmark against src/, runs every workload) =="
  python3 perfbench/selftest.py
fi

if [[ "$BENCH_JSON" == 1 ]]; then
  echo "== bench_tdf_load -> BENCH_dataset.json =="
  ./build/bench/bench_tdf_load --json BENCH_dataset.json
  echo "== bench_campaign_scale -> BENCH_campaign.json =="
  ./build/bench/bench_campaign_scale --json BENCH_campaign.json
  echo "== bench_profile_matrix -> BENCH_profile.json =="
  ./build/bench/bench_profile_matrix --json BENCH_profile.json
fi

if [[ "$TSAN" == 1 ]]; then
  echo "== TSan build + concurrency suites =="
  cmake -B build-tsan -S . -DTITANREL_SANITIZE=thread -DTITANREL_WERROR=ON
  cmake --build build-tsan -j "$JOBS" --target \
    par_pool_test study_pipeline_test study_sharded_test \
    determinism_test profile_determinism_test paper_shapes_test
  ./build-tsan/tests/par_pool_test
  ./build-tsan/tests/study_pipeline_test
  ./build-tsan/tests/study_sharded_test
  ./build-tsan/tests/determinism_test
  ./build-tsan/tests/profile_determinism_test
  ./build-tsan/tests/paper_shapes_test --gtest_filter=-PaperShapes.AblationChecksPass
fi

if [[ "$UBSAN" == 1 ]]; then
  echo "== UBSan build + ctest =="
  cmake -B build-ubsan -S . -DTITANREL_SANITIZE=undefined -DTITANREL_WERROR=ON
  cmake --build build-ubsan -j "$JOBS"
  ctest --test-dir build-ubsan --output-on-failure -j "$JOBS"
fi

echo "check.sh: all stages green"

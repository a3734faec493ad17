#!/usr/bin/env bash
# Smoke test for the exp/ parallel sweep runner.
#
# 1. Release build + the tier-1 ctest suite.
# 2. A tiny sweep at 1 and 2 threads; the JSON reports AND the Chrome
#    trace exports must be byte-identical (deterministic seeding is
#    schedule-independent, and so is the observability layer).
# 3. The same tiny sweep under a ThreadSanitizer build (-fsanitize=thread
#    through CMAKE_CXX_FLAGS) to catch data races in the thread pool.
set -euo pipefail
cd "$(dirname "$0")/.."

GEN=()
command -v ninja >/dev/null 2>&1 && GEN=(-G Ninja)

echo "== release build + tier-1 tests =="
cmake -B build-smoke "${GEN[@]}" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-smoke -j"$(nproc)"
ctest --test-dir build-smoke --output-on-failure -j"$(nproc)"

echo "== determinism: 1 thread vs 2 threads =="
SWEEP=build-smoke/examples/delta_sweep
"$SWEEP" --presets RTOS4,RTOS6 --seeds 2 --limit 5000000 \
  --threads 1 --out build-smoke/sweep_t1.json \
  --trace build-smoke/trace_t1.json --quiet
"$SWEEP" --presets RTOS4,RTOS6 --seeds 2 --limit 5000000 \
  --threads 2 --out build-smoke/sweep_t2.json \
  --trace build-smoke/trace_t2.json --quiet
cmp build-smoke/sweep_t1.json build-smoke/sweep_t2.json
cmp build-smoke/trace_t1.json build-smoke/trace_t2.json
grep -q '"metrics"' build-smoke/sweep_t1.json
grep -q '"cat": "bus"' build-smoke/trace_t1.json
grep -q '"cat": "lock"' build-smoke/trace_t1.json
grep -q '"cat": "deadlock"' build-smoke/trace_t1.json
echo "reports and traces identical"

echo "== engine stats: determinism + report neutrality =="
"$SWEEP" --presets RTOS4,RTOS6 --seeds 2 --limit 5000000 \
  --threads 1 --engine-stats --out build-smoke/sweep_es_t1.json --quiet
"$SWEEP" --presets RTOS4,RTOS6 --seeds 2 --limit 5000000 \
  --threads 2 --engine-stats --out build-smoke/sweep_es_t2.json --quiet
cmp build-smoke/sweep_es_t1.json build-smoke/sweep_es_t2.json
grep -q '"engine"' build-smoke/sweep_es_t1.json
"$SWEEP" --presets RTOS4,RTOS6 --seeds 2 --limit 5000000 \
  --threads 1 --out build-smoke/sweep_plain.json --quiet
python3 scripts/strip_engine_stats.py build-smoke/sweep_es_t1.json \
  | cmp build-smoke/sweep_plain.json -
echo "engine blocks identical across threads and strictly report-neutral"

echo "== TSan build + 2-thread sweep =="
cmake -B build-tsan "${GEN[@]}" \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -g -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS=-fsanitize=thread >/dev/null
cmake --build build-tsan -j"$(nproc)" --target delta_sweep exp_runner_test
build-tsan/examples/delta_sweep --presets RTOS4 --seeds 2 --limit 2000000 \
  --threads 2 --out - --quiet >/dev/null
build-tsan/tests/exp_runner_test
echo "tsan sweep clean"

echo
echo "sweep smoke: OK"

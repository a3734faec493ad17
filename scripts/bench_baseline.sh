#!/usr/bin/env bash
# Performance baselines for the seven Table 3 presets.
#
#   scripts/bench_baseline.sh write   [build-dir]
#   scripts/bench_baseline.sh compare [build-dir] [tolerance-%]
#   scripts/bench_baseline.sh --throughput write   [build-dir]
#   scripts/bench_baseline.sh --throughput compare [build-dir] [tolerance-%]
#
# `write` runs delta_profile over RTOS1..RTOS7 (mixed workload, seed 1)
# and stores the per-preset cycle counts in bench/BENCH_presets.json.
# `compare` re-runs the same cells and exits non-zero when any preset's
# app_run_time drifted from the committed baseline by more than the
# tolerance (default 2%). The counts are simulated cycles — fully
# deterministic — so any drift is a real cost-model change, never noise;
# refresh the baseline deliberately with `write` when such a change is
# intended.
#
# With `--throughput` the same modes operate on the host-throughput
# baseline bench/BENCH_throughput.json produced by bench_throughput
# (events/sec and simulated-cycles/sec per preset, tracing off).
# `--throughput write` additionally rolls the baseline up into the
# root-level BENCH_summary.json (geomean + per-preset events/sec).
# Host wall-clock is noisy, so the throughput compare only fails on a
# *drop* beyond the tolerance (default 25%) — it is a regression tripwire,
# not an exact pin like the cycle-count baseline.
#
# With `--scaling` the modes operate on bench/BENCH_scaling.json, the
# sw vs monolithic-hw vs sharded-hw deadlock-unit cost curves emitted by
# scaling_hierarchy (4x4 .. 256x256). Every number in it is simulated or
# structural — no wall-clock — so the compare is an exact byte compare.
set -euo pipefail
cd "$(dirname "$0")/.."

THROUGHPUT=0
SCALING=0
if [[ "${1:-}" == "--throughput" ]]; then
  THROUGHPUT=1
  shift
elif [[ "${1:-}" == "--scaling" ]]; then
  SCALING=1
  shift
fi

MODE="${1:-compare}"
BUILD="${2:-build}"
PROFILE="$BUILD/examples/delta_profile"

if [[ "$SCALING" == 1 ]]; then
  BASELINE=bench/BENCH_scaling.json
  BENCH="$BUILD/bench/scaling_hierarchy"

  if [[ ! -x "$BENCH" ]]; then
    echo "error: $BENCH not built (cmake --build $BUILD -j)" >&2
    exit 2
  fi

  case "$MODE" in
    write)
      mkdir -p bench
      "$BENCH" --out "$BASELINE"
      echo "scaling baseline written to $BASELINE"
      ;;
    compare)
      if [[ ! -f "$BASELINE" ]]; then
        echo "error: $BASELINE missing (run: $0 --scaling write $BUILD)" >&2
        exit 2
      fi
      CURRENT="$(mktemp)"
      trap 'rm -f "$CURRENT"' EXIT
      "$BENCH" --out "$CURRENT"
      if ! cmp -s "$BASELINE" "$CURRENT"; then
        echo "scaling comparison FAILED: $BASELINE differs from current run" >&2
        diff "$BASELINE" "$CURRENT" | head -40 >&2 || true
        exit 1
      fi
      echo "scaling comparison OK (byte-identical)"
      ;;
    *)
      echo "usage: $0 --scaling {write|compare} [build-dir]" >&2
      exit 2
      ;;
  esac
  exit 0
fi

if [[ "$THROUGHPUT" == 1 ]]; then
  TOL="${3:-25}"
  BASELINE=bench/BENCH_throughput.json
  ENGINE_BASELINE=bench/BENCH_engine_stats.json
  SUMMARY=BENCH_summary.json
  BENCH="$BUILD/bench/bench_throughput"

  # Extract only the deterministic engine blocks from a
  # `bench_throughput --engine-stats` JSON: every counter inside
  # "engine" is derived from simulated state, so the result is
  # bit-identical on any host — unlike the surrounding timing figures.
  extract_engine() {
    python3 - "$1" "$2" <<'EOF'
import json, sys

d = json.load(open(sys.argv[1]))
out = {
    "schema": "delta.bench.engine.v1",
    "workload": d["workload"],
    "seed": d["seed"],
    "limit": d["limit"],
    "presets": {k: v["engine"] for k, v in d["presets"].items()},
}
with open(sys.argv[2], "w") as f:
    json.dump(out, f, indent=2, sort_keys=False)
    f.write("\n")
EOF
  }

  if [[ ! -x "$BENCH" ]]; then
    echo "error: $BENCH not built (cmake --build $BUILD -j)" >&2
    exit 2
  fi

  run_throughput() {
    "$BENCH" --min-seconds 0.5 --min-runs 2 --out "$1"
  }

  # Roll the per-preset baseline up into the root-level summary:
  # geomean events/sec plus the per-preset rates, so a reader
  # (or CI artifact diff) gets the headline number without parsing the
  # full baselines. The "host" stamp records what produced the numbers —
  # throughput figures are meaningless without the compiler, flags and
  # core count that measured them (compare only reads "presets", so the
  # stamp never fails a comparison).
  write_summary() {
    local cache="$BUILD/CMakeCache.txt"
    local compiler="" flags="" build_type=""
    if [[ -f "$cache" ]]; then
      compiler=$(sed -n 's/^CMAKE_CXX_COMPILER:[^=]*=//p' "$cache" | head -1)
      build_type=$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$cache" | head -1)
      flags=$(sed -n 's/^CMAKE_CXX_FLAGS:[^=]*=//p' "$cache" | head -1)
      local rel_var="CMAKE_CXX_FLAGS_$(echo "${build_type:-Release}" \
          | tr '[:lower:]' '[:upper:]')"
      local rel_flags
      rel_flags=$(sed -n "s/^${rel_var}:[^=]*=//p" "$cache" | head -1)
      flags=$(echo "$flags $rel_flags" | xargs || true)
    fi
    local compiler_version=""
    if [[ -n "$compiler" && -x "$compiler" ]]; then
      compiler_version=$("$compiler" --version 2>/dev/null | head -1)
    fi
    local cores commit dirty
    cores=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)
    commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
    dirty=$(git status --porcelain 2>/dev/null | grep -q . && echo true \
        || echo false)
    HOST_COMPILER="$compiler" HOST_COMPILER_VERSION="$compiler_version" \
    HOST_FLAGS="$flags" HOST_BUILD_TYPE="$build_type" HOST_CORES="$cores" \
    HOST_COMMIT="$commit" HOST_DIRTY="$dirty" \
    python3 - "$BASELINE" "$SUMMARY" <<'EOF'
import json, math, os, sys

def load(path):
    with open(path) as f:
        d = json.load(f)
    presets = {k: v["events_per_sec"] for k, v in d["presets"].items()}
    geo = math.exp(sum(math.log(v) for v in presets.values()) / len(presets))
    return {"geomean_events_per_sec": int(geo), "presets": presets}

summary = {
    "schema": "delta.bench.summary.v3",
    "clock": "process_cpu_best_run",
    "host": {
        "compiler": os.environ.get("HOST_COMPILER", ""),
        "compiler_version": os.environ.get("HOST_COMPILER_VERSION", ""),
        "cxx_flags": os.environ.get("HOST_FLAGS", ""),
        "build_type": os.environ.get("HOST_BUILD_TYPE", ""),
        "cores": int(os.environ.get("HOST_CORES", "0") or 0),
        "commit": os.environ.get("HOST_COMMIT", "unknown"),
        "dirty": os.environ.get("HOST_DIRTY", "false") == "true",
    },
    "observer": load(sys.argv[1]),
}
with open(sys.argv[2], "w") as f:
    json.dump(summary, f, indent=2, sort_keys=False)
    f.write("\n")
print(f"summary written to {sys.argv[2]}")
EOF
  }

  case "$MODE" in
    write)
      mkdir -p bench
      run_throughput "$BASELINE"
      echo "throughput baseline written to $BASELINE"
      ENGINE_TMP="$(mktemp)"
      "$BENCH" --min-seconds 0 --min-runs 1 --engine-stats \
        --out "$ENGINE_TMP"
      extract_engine "$ENGINE_TMP" "$ENGINE_BASELINE"
      rm -f "$ENGINE_TMP"
      echo "engine-stats baseline written to $ENGINE_BASELINE"
      write_summary
      ;;
    engine-compare)
      # Deterministic drift note: re-collect the engine counters and
      # diff them against the committed baseline. Any diff means the
      # bench scenario's simulated event mix changed — the committed
      # throughput numbers then describe a different workload and
      # should be refreshed alongside the intended change.
      if [[ ! -f "$ENGINE_BASELINE" ]]; then
        echo "error: $ENGINE_BASELINE missing (run: $0 --throughput write $BUILD)" >&2
        exit 2
      fi
      CURRENT_RAW="$(mktemp)"
      CURRENT="$(mktemp)"
      trap 'rm -f "$CURRENT_RAW" "$CURRENT"' EXIT
      "$BENCH" --min-seconds 0 --min-runs 1 --engine-stats \
        --out "$CURRENT_RAW" 2>/dev/null
      extract_engine "$CURRENT_RAW" "$CURRENT"
      if ! cmp -s "$ENGINE_BASELINE" "$CURRENT"; then
        echo "engine-stats drift: counters differ from $ENGINE_BASELINE" >&2
        diff "$ENGINE_BASELINE" "$CURRENT" | head -40 >&2 || true
        exit 1
      fi
      echo "engine-stats comparison OK (byte-identical counters)"
      ;;
    compare)
      if [[ ! -f "$BASELINE" ]]; then
        echo "error: $BASELINE missing (run: $0 --throughput write $BUILD)" >&2
        exit 2
      fi
      CURRENT="$(mktemp)"
      trap 'rm -f "$CURRENT"' EXIT
      run_throughput "$CURRENT"
      python3 - "$BASELINE" "$CURRENT" "$TOL" <<'EOF'
import json, sys

base = json.load(open(sys.argv[1]))["presets"]
cur = json.load(open(sys.argv[2]))["presets"]
tol = float(sys.argv[3])
failed = False
for key in sorted(base):
    if key not in cur:
        print(f"MISSING {key}: in baseline but not in current run")
        failed = True
        continue
    b = base[key]["events_per_sec"]
    c = cur[key]["events_per_sec"]
    drift = 0.0 if b == 0 else 100.0 * (c - b) / b
    # Only a drop is a regression; faster is always fine.
    mark = "OK " if drift >= -tol else "FAIL"
    if drift < -tol:
        failed = True
    print(f"{mark} {key}: baseline {b} ev/s current {c} ev/s "
          f"drift {drift:+.2f}%")
if failed:
    print(f"throughput comparison FAILED (tolerance -{tol}%)")
    sys.exit(1)
print(f"throughput comparison OK (tolerance -{tol}%)")
EOF
      ;;
    *)
      echo "usage: $0 --throughput {write|compare|engine-compare} [build-dir] [tolerance-%]" >&2
      exit 2
      ;;
  esac
  exit 0
fi

TOL="${3:-2}"
BASELINE=bench/BENCH_presets.json

if [[ ! -x "$PROFILE" ]]; then
  echo "error: $PROFILE not built (cmake --build $BUILD -j)" >&2
  exit 2
fi

run_presets() {
  "$PROFILE" --preset 1,2,3,4,5,6,7 --workload mixed --seed 1 \
    --sample-period 10000 --out /dev/null --baseline-out "$1" >/dev/null
}

case "$MODE" in
  write)
    mkdir -p bench
    run_presets "$BASELINE"
    echo "baseline written to $BASELINE"
    ;;
  compare)
    if [[ ! -f "$BASELINE" ]]; then
      echo "error: $BASELINE missing (run: $0 write $BUILD)" >&2
      exit 2
    fi
    CURRENT="$(mktemp)"
    trap 'rm -f "$CURRENT"' EXIT
    run_presets "$CURRENT"
    python3 - "$BASELINE" "$CURRENT" "$TOL" <<'EOF'
import json, sys

base = json.load(open(sys.argv[1]))
cur = json.load(open(sys.argv[2]))
tol = float(sys.argv[3])
failed = False
for key in sorted(base):
    if key not in cur:
        print(f"MISSING {key}: in baseline but not in current run")
        failed = True
        continue
    b = base[key]["app_run_time"]
    c = cur[key]["app_run_time"]
    drift = 0.0 if b == 0 else 100.0 * (c - b) / b
    mark = "OK " if abs(drift) <= tol else "FAIL"
    if abs(drift) > tol:
        failed = True
    print(f"{mark} {key}: baseline {b} current {c} drift {drift:+.2f}%")
for key in sorted(set(cur) - set(base)):
    print(f"NEW  {key}: not in baseline (run write to record it)")
if failed:
    print(f"baseline comparison FAILED (tolerance {tol}%)")
    sys.exit(1)
print(f"baseline comparison OK (tolerance {tol}%)")
EOF
    ;;
  *)
    echo "usage: $0 {write|compare} [build-dir] [tolerance-%]" >&2
    exit 2
    ;;
esac

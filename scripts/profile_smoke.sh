#!/usr/bin/env bash
# Smoke test for the cycle-attribution profiler (examples/delta_profile).
#
# 1. Two Table 3 presets plus a corpus fuzz scenario through the
#    profiler; every profile JSON must parse, and every task's buckets
#    must satisfy run + spin + blocked + overhead == total exactly.
# 2. The Chrome export must carry counter tracks, named PE threads and
#    wait-for flow arrows.
# 3. Byte-determinism: --threads 1 and --threads 4 produce identical
#    profile documents.
#
# Assumes an existing build directory (default: build, override via $1).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
PROFILE="$BUILD/examples/delta_profile"
OUT="$BUILD/profile-smoke"

if [[ ! -x "$PROFILE" ]]; then
  echo "error: $PROFILE not built (cmake --build $BUILD -j)" >&2
  exit 2
fi
mkdir -p "$OUT"

echo "== presets through the profiler =="
"$PROFILE" --preset kRtos4,kRtos6 --workload mixed --seed 1 \
  --threads 1 --sample-period 10000 \
  --out "$OUT/presets_t1.json" --chrome "$OUT/presets.chrome.json"
"$PROFILE" --preset kRtos4,kRtos6 --workload mixed --seed 1 \
  --threads 4 --sample-period 10000 \
  --out "$OUT/presets_t4.json" >/dev/null
cmp "$OUT/presets_t1.json" "$OUT/presets_t4.json"
echo "profile bytes identical at 1 and 4 threads"

echo "== engine stats: neutrality + counter tracks =="
"$PROFILE" --preset kRtos4,kRtos6 --workload mixed --seed 1 \
  --threads 1 --sample-period 10000 --engine-stats \
  --out "$OUT/presets_es.json" --chrome "$OUT/presets_es.chrome.json" \
  >/dev/null
python3 scripts/strip_engine_stats.py "$OUT/presets_es.json" \
  | cmp "$OUT/presets_t1.json" -
grep -q '"engine.queue_depth"' "$OUT/presets_es.chrome.json"
grep -q '"engine.footprint_bytes"' "$OUT/presets_es.chrome.json"
python3 - "$OUT/presets_es.json" <<'EOF'
import json, sys

doc = json.load(open(sys.argv[1]))
for run in doc["runs"]:
    e = run["engine"]
    assert e["events_dispatched"] > 0, "no events attributed"
    q = e["queue"]
    assert q["pops"] > 0
    assert q["live_size"]["count"] > 0, "live-size histogram idle"
    k = e["kernel"]
    assert k["service_windows"] > 0, "no service windows"
    r = k["reschedule"]
    assert r["calls"] == (r["fastout_in_service"] + r["fastout_idle"]
                          + r["scans"]), "reschedule outcomes leak"
    assert e["timeseries"]["samples"] > 0, "engine sampler idle"
print("engine blocks: OK")
EOF
echo "engine stats neutral; counter tracks present"

echo "== corpus scenario through the profiler =="
"$PROFILE" --scenario tests/fuzz/corpus/contention_chain.json \
  --sample-period 1000 --out "$OUT/scenario.json" \
  --chrome "$OUT/scenario.chrome.json"

echo "== validate documents =="
python3 - "$OUT/presets_t1.json" "$OUT/scenario.json" <<'EOF'
import json, sys

for path in sys.argv[1:]:
    doc = json.load(open(path))
    assert doc["runs"], f"{path}: no runs"
    for run in doc["runs"]:
        assert run["ok"], f"{path}: failed run: {run.get('error')}"
        p = run["profile"]
        assert p["tasks"], f"{path}: no tasks profiled"
        for t in p["tasks"]:
            total = t["run"] + t["spin"] + t["blocked"] + t["overhead"]
            assert total == t["total"], f"{path}: buckets leak for {t['name']}"
            assert t["overhead"] == t["sched_wait"] + t["service"]
        assert p["timeseries"]["samples"] > 0, f"{path}: sampler idle"
    print(f"{path}: OK ({len(doc['runs'])} runs)")
EOF
python3 - "$OUT/presets.chrome.json" <<'EOF'
import json, sys

doc = json.load(open(sys.argv[1]))
ev = doc["traceEvents"]
phases = {e["ph"] for e in ev}
assert "C" in phases, "no counter tracks"
assert "s" in phases and "f" in phases, "no wait-for flow arrows"
names = {e["args"]["name"] for e in ev
         if e["ph"] == "M" and e["name"] == "thread_name"}
assert {"PE0", "PE1", "PE2", "PE3", "HW units"} <= names, names
print(f"chrome export: OK ({len(ev)} events)")
EOF

echo
echo "profile smoke: OK"

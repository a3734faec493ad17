#!/usr/bin/env bash
# Byte-identity check for the report-producing CLIs.
#
# Regenerates the exact reports captured in tests/golden/ (fixed seeds,
# single-threaded semantics) and cmp's them byte for byte. Any diff
# means the simulation core or the report writers changed observable
# behaviour — the hard invariant the high-throughput queue/kernel work
# must preserve.
#
# A second pass reruns the same invocations with --engine-stats and
# strips the introspection blocks (scripts/strip_engine_stats.py): the
# remainder must also match the goldens byte for byte. That pins the
# tentpole's strict report neutrality — turning collection on may add
# "engine" members but must not perturb a single other byte.
#
# The engine counters themselves are derived from simulated state only,
# so two --engine-stats campaign roll-ups are pinned whole, counters
# included: the default pairs in fuzz_campaign_engine.json, and the
# large-geometry pairs (sharded DDU/DAU, Banker's, WFG recovery at up to
# 64x64) in fuzz_large_engine.json.
#
# The profile is pinned twice, with the sampler on and off: a run
# keeps its phase log only when profiled, and with the sampler off the
# profile is all that reads it.
#
# The plain-text --metrics tables are pinned too: delta_sweep's counters
# summed over the protocol zoo, and delta_gen's smoke run of RTOS4
# (counters, then histogram summaries). Only the table is compared; the
# lines before it name temporary paths and host time.
#
# usage: check_goldens.sh <examples-bin-dir> <golden-dir>
set -euo pipefail

bin_dir=${1:?usage: check_goldens.sh <examples-bin-dir> <golden-dir>}
golden=${2:?usage: check_goldens.sh <examples-bin-dir> <golden-dir>}
strip_py="$(dirname "$0")/strip_engine_stats.py"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# The protocol zoo: every deadlock strategy (PDDA/DDU, DAA/DAU, none,
# Banker's, WFG scan-and-recovery) on the workloads that drive its
# decision paths — G-dl and R-dl avoidance and give-up, detection and
# recovery, periodic deadlines, random request mixes.
zoo=(--presets 1,2,3,4,5,6,7,bankers,wfg-recovery
     --workloads gdl,rdl,robot,random --seeds 1)

"$bin_dir/delta_sweep" --workloads mixed --seeds 2 --quiet \
    --out "$tmp/sweep_mixed.json" >/dev/null
"$bin_dir/delta_sweep" "${zoo[@]}" --quiet --out "$tmp/sweep_zoo.json" >/dev/null
"$bin_dir/delta_profile" --preset 1,2,3,4,5,6,7 --workload mixed --seed 1 \
    --sample-period 10000 --out "$tmp/profile_presets.json" >/dev/null
"$bin_dir/delta_profile" --preset 1,2,3,4,5,6,7 --workload mixed --seed 1 \
    --sample-period 0 --out "$tmp/profile_presets_unsampled.json" >/dev/null
"$bin_dir/delta_fuzz" --runs 40 --seed 7 \
    --out "$tmp/fuzz_campaign.json" >/dev/null

"$bin_dir/delta_sweep" --workloads mixed --seeds 2 --quiet --engine-stats \
    --out "$tmp/es_sweep_mixed.json" >/dev/null
"$bin_dir/delta_sweep" "${zoo[@]}" --quiet --engine-stats \
    --out "$tmp/es_sweep_zoo.json" >/dev/null
"$bin_dir/delta_profile" --preset 1,2,3,4,5,6,7 --workload mixed --seed 1 \
    --sample-period 10000 --engine-stats \
    --out "$tmp/es_profile_presets.json" >/dev/null
"$bin_dir/delta_profile" --preset 1,2,3,4,5,6,7 --workload mixed --seed 1 \
    --sample-period 0 --engine-stats \
    --out "$tmp/es_profile_presets_unsampled.json" >/dev/null
"$bin_dir/delta_fuzz" --runs 40 --seed 7 --engine-stats \
    --out "$tmp/es_fuzz_campaign.json" >/dev/null
"$bin_dir/delta_fuzz" --runs 64 --seed 1 --generator large \
    --pairs ddu-sharded,dau-sharded,bankers-vs-daa,wfg-recovery \
    --engine-stats --out "$tmp/fuzz_large_engine.json" >/dev/null
"$bin_dir/delta_sweep" "${zoo[@]}" --quiet --metrics \
    --out "$tmp/metrics_zoo.json" | sed -n '/^metrics (/,$p' \
    > "$tmp/sweep_zoo_metrics.txt"
"$bin_dir/delta_gen" --preset 4 --metrics "$tmp/gen" \
    | sed -n '/^metrics (/,$p' > "$tmp/gen_preset4_metrics.txt"

status=0
for f in sweep_mixed sweep_zoo profile_presets profile_presets_unsampled \
         fuzz_campaign; do
  if cmp -s "$golden/$f.json" "$tmp/$f.json"; then
    echo "ok: $f.json byte-identical"
  else
    echo "GOLDEN MISMATCH: $f.json differs from $golden/$f.json" >&2
    cmp "$golden/$f.json" "$tmp/$f.json" >&2 || true
    status=1
  fi
  python3 "$strip_py" "$tmp/es_$f.json" > "$tmp/es_$f.stripped.json"
  if cmp -s "$golden/$f.json" "$tmp/es_$f.stripped.json"; then
    echo "ok: $f.json neutral under --engine-stats"
  else
    echo "ENGINE-STATS NOT NEUTRAL: stripped $f.json differs from" \
         "$golden/$f.json" >&2
    cmp "$golden/$f.json" "$tmp/es_$f.stripped.json" >&2 || true
    status=1
  fi
done
for pin in fuzz_campaign_engine:es_fuzz_campaign \
           fuzz_large_engine:fuzz_large_engine; do
  f=${pin%%:*} out="$tmp/${pin#*:}.json"
  if cmp -s "$golden/$f.json" "$out"; then
    echo "ok: $f.json byte-identical"
  else
    echo "GOLDEN MISMATCH: engine counters differ from $golden/$f.json" >&2
    cmp "$golden/$f.json" "$out" >&2 || true
    status=1
  fi
done
for f in sweep_zoo_metrics gen_preset4_metrics; do
  if cmp -s "$golden/$f.txt" "$tmp/$f.txt"; then
    echo "ok: $f.txt byte-identical"
  else
    echo "GOLDEN MISMATCH: --metrics table differs from $golden/$f.txt" >&2
    cmp "$golden/$f.txt" "$tmp/$f.txt" >&2 || true
    status=1
  fi
done
exit $status

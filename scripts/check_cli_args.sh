#!/usr/bin/env bash
# Bad-argument and failed-write checks for the delta_* CLIs.
#
# A numeric flag whose value is not one whole in-range number (junk,
# trailing junk, a sign on an unsigned flag, overflow) must exit 2 with
# an error naming the flag, before any simulation runs.
#
# A report that cannot be written in full must be an error exit, not a
# "written" line and exit 0. /dev/full accepts the open and fails every
# write with ENOSPC, so only a checked close or flush can catch it.
#
# A hostile input file (a repro nested a million levels deep, a value
# too wide for its field) must be a located parse error, not a crash or
# a silently truncated value. An allocation size that wraps when rounded
# up must fail in both allocator models, not pass as a small request.
#
# A document sent to stdout ('-') must be the only thing there: it
# parses as JSON and is byte-identical to the same run written to a
# file. Two documents on stdout exit 2 with an error naming both flags.
#
# usage: check_cli_args.sh <examples-bin-dir>
set -uo pipefail

bin_dir=${1:?usage: check_cli_args.sh <examples-bin-dir>}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

status=0
# expect_rejected <flag> <cli> <args...>
expect_rejected() {
  local flag=$1 cli=$2 err rc
  shift 2
  err=$("$bin_dir/$cli" "$@" 2>&1 >/dev/null)
  rc=$?
  if [[ $rc -eq 2 && $err == *"$flag expects"* ]]; then
    echo "ok: $cli $* -> $(head -1 <<<"$err")"
  else
    echo "NOT REJECTED: $cli $* exited $rc: $(head -1 <<<"$err")" >&2
    status=1
  fi
}

# expect_write_failure <exit-code> <cli> <args...>
# Runs with stdout on /dev/full too, which is where "--out -" goes.
expect_write_failure() {
  local want=$1 cli=$2 err rc
  shift 2
  err=$("$bin_dir/$cli" "$@" 2>&1 >/dev/full)
  rc=$?
  if [[ $rc -eq $want && $err == *"cannot write "* ]]; then
    echo "ok: $cli $* -> exit $rc: $(head -1 <<<"$err")"
  else
    echo "WRITE FAILURE MISSED: $cli $* exited $rc (want $want):" \
         "$(head -1 <<<"$err")" >&2
    status=1
  fi
}

# expect_input_error <exit-code> <message> <cli> <args...>
expect_input_error() {
  local want=$1 msg=$2 cli=$3 err rc
  shift 3
  err=$("$bin_dir/$cli" "$@" 2>&1 >/dev/null)
  rc=$?
  if [[ $rc -eq $want && $err == *"$msg"* ]]; then
    echo "ok: $cli $* -> exit $rc: $(head -1 <<<"$err")"
  else
    echo "INPUT NOT REJECTED: $cli $* exited $rc (want $want):" \
         "$(head -1 <<<"$err")" >&2
    status=1
  fi
}

# expect_clean_stdout <flag> <cli> <args...>
# Runs once with "<flag> -" and once with "<flag> <file>".
expect_clean_stdout() {
  local flag=$1 cli=$2 rc_out rc_file
  shift 2
  "$bin_dir/$cli" "$@" "$flag" - >"$tmp/stdout.doc" 2>/dev/null
  rc_out=$?
  "$bin_dir/$cli" "$@" "$flag" "$tmp/file.doc" >/dev/null 2>&1
  rc_file=$?
  if [[ $rc_out -eq $rc_file ]] && cmp -s "$tmp/stdout.doc" "$tmp/file.doc" &&
     python3 -c 'import json, sys; json.load(open(sys.argv[1]))' \
         "$tmp/stdout.doc" 2>/dev/null; then
    echo "ok: $cli $* $flag - -> $(wc -c <"$tmp/stdout.doc") bytes of JSON"
  else
    echo "STDOUT NOT CLEAN: $cli $* $flag - exited $rc_out" \
         "(file run $rc_file)" >&2
    status=1
  fi
}

# expect_two_stdout <flag-a> <flag-b> <cli> <args...>
expect_two_stdout() {
  local a=$1 b=$2 cli=$3 err rc
  shift 3
  err=$("$bin_dir/$cli" "$@" "$a" - "$b" - 2>&1 >/dev/null)
  rc=$?
  if [[ $rc -eq 2 && $err == *"$a and $b"* ]]; then
    echo "ok: $cli $* $a - $b - -> $(head -1 <<<"$err")"
  else
    echo "TWO STDOUT DOCUMENTS ACCEPTED: $cli $* $a - $b - exited $rc:" \
         "$(head -1 <<<"$err")" >&2
    status=1
  fi
}

# Each call is cheap even when a value slips through, so a regression
# fails fast instead of running a full default sweep.
sweep=(delta_sweep --presets 4 --seeds 1 --quiet --out "$tmp/sweep.json")
fuzz=(delta_fuzz --out "$tmp/fuzz.json")
profile=(delta_profile --out "$tmp/profile.json")

expect_rejected --runs "${fuzz[@]}" --runs x
expect_rejected --runs "${fuzz[@]}" --runs 2OO
expect_rejected --threads "${fuzz[@]}" --runs 1 --threads -2
expect_rejected --limit "${sweep[@]}" --limit -1
expect_rejected --threads "${sweep[@]}" --threads x
expect_rejected --base-seed "${sweep[@]}" --base-seed 99999999999999999999999
expect_rejected --seeds "${sweep[@]}" --seeds 3x
expect_rejected --sample-period "${profile[@]}" --sample-period -5
expect_rejected --seed "${profile[@]}" --seed ''

expect_write_failure 1 delta_sweep --presets 1 --workloads mixed --seeds 1 \
    --quiet --out /dev/full
expect_write_failure 1 delta_sweep --presets 1 --workloads mixed --seeds 1 \
    --quiet --out -
expect_write_failure 1 delta_sweep --presets 1 --workloads mixed --seeds 1 \
    --quiet --out "$tmp/sweep.json" --trace /dev/full
expect_write_failure 1 delta_profile --preset 1 --workload mixed --seed 1 \
    --out /dev/full
expect_write_failure 1 delta_profile --preset 1 --workload mixed --seed 1 \
    --out "$tmp/profile.json" --chrome /dev/full
expect_write_failure 2 delta_fuzz --runs 2 --seed 1 --out /dev/full

# No --quiet: the per-run lines must go to stderr, not into the report.
small_sweep=(delta_sweep --presets 1 --workloads mixed --seeds 1)
small_profile=(delta_profile --preset 1 --workload mixed --seed 1)
expect_clean_stdout --out "${small_sweep[@]}"
expect_clean_stdout --trace "${small_sweep[@]}" --out "$tmp/sweep.json"
expect_clean_stdout --out "${small_profile[@]}"
expect_clean_stdout --chrome "${small_profile[@]}" --out "$tmp/profile.json"
expect_clean_stdout --out delta_fuzz --runs 2 --seed 1
expect_clean_stdout --trace delta_gen --preset 4 --metrics "$tmp/gen"
expect_two_stdout --out --trace "${small_sweep[@]}"
expect_two_stdout --out --chrome "${small_profile[@]}"
expect_two_stdout --out --repro delta_fuzz --runs 2 --seed 1

{ printf '{"x": '; head -c 1000000 /dev/zero | tr '\0' '['; } >"$tmp/deep.json"
printf '%s\n' '{"geometry": {"pes": 1, "resources": 1}, "tasks": [' \
    '  {"name": "t0", "pe": 0, "priority": 4294967297,' \
    '   "steps": [{"op": "compute", "cycles": 10}]}]}' >"$tmp/priority.json"
printf 'bus.address_width = 4294967328\n' >"$tmp/wide.cfg"
expect_input_error 2 "scenario JSON: " delta_fuzz --replay "$tmp/deep.json"
expect_input_error 2 "scenario JSON: " delta_fuzz --replay "$tmp/priority.json"
expect_input_error 1 "config line 1" delta_gen "$tmp/wide.cfg" "$tmp/gen"

printf '%s\n' '{"geometry": {"pes": 1, "resources": 1}, "tasks": [' \
    '  {"name": "t0", "pe": 0, "priority": 1, "steps": [' \
    '    {"op": "alloc", "bytes": 64, "slot": "a"},' \
    '    {"op": "alloc", "bytes": 18446744073709551615, "slot": "b"},' \
    '    {"op": "free", "slot": "b"}, {"op": "free", "slot": "a"}]}]}' \
    >"$tmp/wrap.json"
out=$("$bin_dir/delta_fuzz" --replay "$tmp/wrap.json" --pairs heap 2>&1)
rc=$?
if [[ $rc -eq 1 && $out == *"HEAP: allocation failed"* &&
      $out == *"SOCDMMU: allocation failed"* ]]; then
  echo "ok: delta_fuzz --replay wrap.json -> exit 1, both allocators fail"
else
  echo "WRAPPING ALLOCATION ACCEPTED: delta_fuzz --replay wrap.json" \
       "exited $rc: $(tr '\n' ' ' <<<"$out")" >&2
  status=1
fi
exit $status

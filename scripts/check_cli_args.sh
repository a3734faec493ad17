#!/usr/bin/env bash
# Malformed-number check for the delta_* CLIs.
#
# A numeric flag whose value is not one whole in-range number (junk,
# trailing junk, a sign on an unsigned flag, overflow) must exit 2 with
# an error naming the flag, before any simulation runs.
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
exit $status

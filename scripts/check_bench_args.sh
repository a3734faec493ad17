#!/usr/bin/env bash
# Argument-rejection check for bench_throughput.
#
# A bad argument must print one `error:` line and exit 2, the same
# contract as the other CLIs; an uncaught exception (SIGABRT, exit 134)
# fails the check.
#
# usage: check_bench_args.sh <bench_throughput binary>
set -uo pipefail

bench=${1:?usage: check_bench_args.sh <bench_throughput binary>}

status=0
expect_rejected() {
  local err rc
  err=$("$bench" --min-runs 1 --min-seconds 0 "$@" 2>&1 >/dev/null)
  rc=$?
  if [[ $rc -eq 2 && $err == error:* ]]; then
    echo "ok: $* -> $err"
  else
    echo "NOT REJECTED: $* exited $rc: $err" >&2
    status=1
  fi
}

expect_rejected --limit 10000        # shorter than one stress period
expect_rejected --workload nosuch
expect_rejected --presets 9
exit $status

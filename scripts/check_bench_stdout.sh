#!/usr/bin/env bash
# Byte-stable stdout for the bench/ binaries.
#
# A bench reproduces the paper in simulated cycles and metered
# operations, so two runs of the same binary print the same bytes and
# exit the same way. Each bench given runs twice, and its two stdouts
# plus exit codes must cmp equal. A bench that prints something of the
# host, such as a wall time or a thread count, fails here.
#
# usage: check_bench_stdout.sh <bench-binary>...
set -uo pipefail

[ $# -gt 0 ] || { echo "usage: check_bench_stdout.sh <bench-binary>..."; exit 2; }

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

status=0
for bin in "$@"; do
  name=$(basename "$bin")
  for run in 1 2; do
    "$bin" > "$tmp/$name.$run" 2>/dev/null
    echo "exit $?" >> "$tmp/$name.$run"
  done
  if ! cmp -s "$tmp/$name.1" "$tmp/$name.2"; then
    echo "FAIL: $name prints different stdout on two runs:"
    diff "$tmp/$name.1" "$tmp/$name.2" | head -20
    status=1
  fi
done
[ $status -eq 0 ] && echo "ok: $# benches print the same stdout twice"
exit $status

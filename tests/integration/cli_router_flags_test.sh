#!/usr/bin/env bash
# multilogd --router runs no engine: the flags only an engine can honour
# must fail with a usage error naming the flag, not be parsed and then
# silently dropped. The flags the router does take must still start it.
#
# Usage: cli_router_flags_test.sh <build-dir>
set -u
daemon="$1/src/server/multilogd"
fail=0

for flags in "--workers 8" "--max-inflight 8" "--slow-query-ms 5" \
             "--no-incremental" "--no-magic" "--no-group-commit" \
             "--data-dir /nonexistent" "--replica-of 127.0.0.1:1"; do
  # A router that accepted the flag would start serving; the timeout
  # turns that into exit 124 instead of a hang.
  # shellcheck disable=SC2086
  out=$(timeout 5 "$daemon" --sample --router --shards 1 --port 0 $flags 2>&1)
  code=$?
  if [ "$code" -ne 2 ]; then
    echo "FAIL($flags): expected the usage exit 2, got $code: $out"
    fail=1
  elif ! grep -q -- "${flags%% *}" <<<"$out"; then
    echo "FAIL($flags): the diagnostic does not name the flag: $out"
    fail=1
  fi
done

# The router's own flags parse, and it serves until the timeout.
out=$(timeout 1 "$daemon" --sample --router --shards 1 --port 0 \
        --max-conns 8 --max-request-bytes 4096 --deadline-ms 50 \
        --mode operational 2>&1)
code=$?
if [ "$code" -ne 124 ] || ! grep -q "multilog-router listening" <<<"$out"; then
  echo "FAIL(router flags): expected a serving router, got $code: $out"
  fail=1
fi

if [ "$fail" -eq 0 ]; then
  echo "cli router flags: ok"
fi
exit $fail

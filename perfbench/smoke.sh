#!/usr/bin/env bash
# The benchmark's own test: every workload at smoke size (an eighth of
# its Sigma, a few seconds), untraced and traced, with every correctness
# check on and no timing bounds. Fails on the first workload that does
# not exit 0 with "correct": true, "failed": 0 and at least one op: a
# failed, refused or timed-out op or an abandoned connection fails it.
#
#   bash perfbench/smoke.sh        (from the root of the checkout)
set -euo pipefail

cd "$(dirname "$0")/.."
for workload in read_serving write_mix sharded; do
  for trace in 0 1; do
    if ! out=$(python3 perfbench/run.py --workload "$workload" --seed 7 \
        --seconds 3 --trace "$trace" --smoke); then
      echo "FAIL $workload trace=$trace: non-zero exit" >&2
      exit 1
    fi
    result=$(printf '%s\n' "$out" | tail -n 1)
    if python3 -c '
import json, sys
r = json.loads(sys.argv[1])
sys.exit(0 if r["correct"] is True and r["failed"] == 0
         and r["attempted"] > 0 else 1)
' "$result"; then
      echo "ok   $workload trace=$trace"
    else
      echo "FAIL $workload trace=$trace: $result" >&2
      exit 1
    fi
  done
done

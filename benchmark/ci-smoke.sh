#!/usr/bin/env bash
# Smoke test for CI: every workload and the trace at LUBM-tiny, one pass,
# a few seconds in all. Fails if a run reports `"correct":false`.
set -euo pipefail
for w in read_sat read_ref read_int write_sat mixed_sub; do
  for trace in 0 1; do
    out=$(bash benchmark/run.sh --workload "$w" --trace "$trace" --seconds 1 --quick)
    echo "$out" | tail -n 1 | grep -q '"correct":true' || {
      echo "$out"
      echo "ci-smoke: $w (trace $trace) failed" >&2
      exit 1
    }
  done
done
echo "ci-smoke: ok"

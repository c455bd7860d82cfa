#!/usr/bin/env bash
# Builds the product and the benchmark in release mode, then runs one
# workload:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# `--workload all` runs the five workloads and their traces one after the
# other. Run from the repository root. Everything written (build output,
# journals, spans) stays under the cargo target directory.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/target}"
bin="$CARGO_TARGET_DIR/release"

# Build chatter goes to stderr: stdout ends with the result line.
cargo build --release --offline --quiet --bin webreason >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

run() {
  "$bin/e2e" --server "$bin/webreason" --tracer "$bin/trace" \
    --work-dir "$CARGO_TARGET_DIR/benchmark-work" "$@"
}

if [[ " $* " == *" --workload all "* ]]; then
  rest=()
  while (($#)); do
    case "$1" in
      --workload | --trace) shift 2 ;;
      *) rest+=("$1"); shift ;;
    esac
  done
  for w in read_sat read_ref read_int write_sat mixed_sub; do
    run --workload "$w" --trace 0 "${rest[@]}"
    run --workload "$w" --trace 1 "${rest[@]}"
  done
else
  run "$@"
fi

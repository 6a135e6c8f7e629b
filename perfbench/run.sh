#!/usr/bin/env bash
# Build the benchmark against this checkout and run one workload.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the root of the repository. Cargo output goes to stderr; the
# last line on stdout is the JSON result. Builds into $CARGO_TARGET_DIR,
# or .bench_build at the repository root when that is unset.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/.bench_build}"
case "$CARGO_TARGET_DIR" in
/*) ;;
*) CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;;
esac

cargo build --release --offline --quiet --manifest-path "$root/perfbench/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"

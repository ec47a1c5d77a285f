#!/usr/bin/env bash
# Build the `qar` binary and the benchmark from source, then run the
# benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload mine_credit --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Builds go to $CARGO_TARGET_DIR (default
# `target`); build output goes to stderr so the result line stays last on
# stdout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
export CARGO_TARGET_DIR="$(realpath -m "${CARGO_TARGET_DIR:-$root/target}")"
cargo build --release --offline --locked --quiet --manifest-path "$root/Cargo.toml" --bin qar >&2
cargo build --release --offline --locked --quiet --manifest-path "$root/perfbench/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"

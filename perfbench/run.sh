#!/usr/bin/env bash
# Build the shipped `ipassd` / `ipass` binaries and the benchmark from
# source, then run one benchmark pass. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve_engine --seed 1 --seconds 45 --trace 0
#
# Both builds share CARGO_TARGET_DIR (default `target`).
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet --bin ipassd --bin ipass
cargo build --release --quiet --manifest-path perfbench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/ipass-perfbench" "$@"

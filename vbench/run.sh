#!/usr/bin/env bash
# Builds and runs the Veritas benchmark from the root of a checkout, e.g.
#   bash vbench/run.sh --workload whatif_cold --seed 1 --seconds 10 --trace 0
# Build output goes to $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path vbench/Cargo.toml >&2
cargo build --release --offline --quiet -p veritas_engine --bin veritasd >&2
exec "$CARGO_TARGET_DIR/release/vbench" --veritasd "$CARGO_TARGET_DIR/release/veritasd" "$@"

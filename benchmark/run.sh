#!/usr/bin/env bash
# Builds the obfuscade CLI and the benchmark from source, then runs one
# workload. Run from the root of a full checkout:
#
#   bash benchmark/run.sh --workload paper-sweep --seed 1 --seconds 12 --trace 0
#
# The last line of standard output is the JSON result.
set -euo pipefail

if [ ! -f Cargo.toml ] || [ ! -d crates/core ] || [ ! -d crates/cli ]; then
    echo "benchmark: run from the root of a full checkout (crates/ not found)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p obfuscade-cli
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/obfuscade-benchmark" --cli "$CARGO_TARGET_DIR/release/obfuscade" "$@"

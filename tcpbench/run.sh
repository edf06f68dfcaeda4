#!/usr/bin/env bash
# Builds the checkout's release `indord-serve` and the benchmark binary,
# then runs one workload:
#
#   bash tcpbench/run.sh --workload monadic-read --seed 1 --seconds 10 --trace 0
#
# Run from the root of the checkout. Both builds stay outside every
# timed region; build output goes to $CARGO_TARGET_DIR (default
# `.bench_build`).
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p indord-server --bin indord-serve >&2
cargo build --release --offline --quiet --manifest-path tcpbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/indord-tcpbench" --server "$CARGO_TARGET_DIR/release/indord-serve" "$@"

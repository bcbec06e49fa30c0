#!/usr/bin/env sh
# Build offline in release mode, then run the end-to-end benchmark and the
# traced (per-layer) run. Writes target/benchmark/{results,layers}.json and
# one target/benchmark/trace-<workload>.json per workload. Extra arguments
# go to both runs (e.g. `crates/benchmark/run.sh --seed 2`).
set -eu
cd "$(dirname "$0")/../.."
cargo build --offline --release -p pulsar-benchmark
bin="${CARGO_TARGET_DIR:-target}/release/benchmark"
"$bin" run "$@"
"$bin" run --traced "$@"

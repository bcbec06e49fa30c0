#!/usr/bin/env sh
# Run the shape sweep (tuned-vs-paper plans and the TSQR fast path across
# aspect ratios 1:1 / 4:1 / 32:1 / 256:1) and write the result to
# BENCH_shapes.json at the repo root.
#
# The binary itself enforces the gates and exits nonzero when one fails:
#   - tuned >= 1.0x fixed on every shape (the tuner may never regress the
#     paper's fixed plan);
#   - TSQR >= 1.2x fixed on the tall-skinny shapes (grid aspect >= 32).
# The JSON is written either way, so a failed gate leaves the honest
# numbers behind for inspection.
#
# Usage: scripts/bench_shapes.sh [output.json]
set -eu
cd "$(dirname "$0")/.."

out="${1:-BENCH_shapes.json}"

cargo build --offline --release -p pulsar-bench --bin shape_sweep

rc=0
./target/release/shape_sweep > "$out" || rc=$?

echo "wrote $out:"
cat "$out"
exit "$rc"

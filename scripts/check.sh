#!/usr/bin/env sh
# Tier-1 verification: formatting, lints, release build, full test suite.
# Everything runs --offline — the workspace has no registry dependencies
# (external crates are vendored under shims/, see shims/README.md).
set -eu
cd "$(dirname "$0")/.."

cargo fmt --all --check

# Re-duplication guard (grep only, always on). The six tile kernels are
# called from one file, so bit-identity across executors holds by
# construction; the FNV-1a and CRC32C checksums, the little-endian writer, the fault
# injectors' SplitMix64 and the submit validator each exist once, so
# wire/disk formats, seed->fault sequences and admission rules cannot
# drift apart between layers; there is one QR array builder, with one
# chain VDP and one tuple namespace for its `R` exits, so one collector
# drains them all; there is one sequential plan walker (`walk_plan`), which
# `tile_qr_seq`, TSQR and every walked service batch run; a block-reflector
# apply narrower than 16 columns has one path (`fused_apply`), so no second
# small-apply loop can drift from it; the service tier has one accept loop
# and one verb table under both `serve` and `route`, and builds its JSON
# with the one writer; every hand-argued thread-safety claim (`unsafe impl`)
# lives in one file, the channel queue. One dataflow, one placement, one
# flop count: the row hops (`row_hops`) that the simulator wires from, the
# mapping (`qr_mapping`) that places the runtime's VDPs and the simulator's
# tasks alike, and the QR flop count (`qr_flops`) behind every Gflop/s, so
# the simulator's traffic and rates cannot drift from the runtime's. Prints
# the offending file:line.
dup=0
hits=$(grep -nE '\b(geqrt|unmqr|tsqrt|tsmqr|ttqrt|ttmqr)(_ws)?\(' crates/core/src/*.rs \
    | grep -v '^crates/core/src/ops\.rs:' | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
if [ -n "$hits" ]; then
    echo "guard: tile kernels may be called only from crates/core/src/ops.rs:" >&2
    echo "$hits" >&2
    dup=1
fi
for pat in '0x811c_9dc5' '0x82f6_3b78' 'struct SplitMix64' 'fn put_u64' 'fn validate_job' 'fn exit_r' \
    'fn build_qr_array_into' 'struct FlatDomainVdp' 'fn walk_plan' 'fn fused_apply' 'unsafe impl' \
    'fn row_hops' 'fn qr_mapping' 'fn qr_flops' 'const TSQR_MIN_ASPECT'; do
    hits=$(grep -rn --include='*.rs' -F "$pat" src crates/*/src || true)
    if [ "$(printf '%s\n' "$hits" | cut -d: -f1 | sort -u | grep -c .)" -ne 1 ]; then
        echo "guard: \`$pat\` must appear in exactly one non-test source file:" >&2
        echo "$hits" >&2
        dup=1
    fi
done
one_front() { # <what> <grep hits>: the hits must all be in one file
    if [ "$(printf '%s\n' "$2" | cut -d: -f1 | sort -u | grep -c .)" -ne 1 ]; then
        echo "guard: $1 must appear in exactly one file under crates/server/src:" >&2
        echo "$2" >&2
        dup=1
    fi
}
one_front '`Msg::Submit {` (outside proto.rs and client.rs)' "$(grep -rn -F 'Msg::Submit {' \
    crates/server/src | grep -vE '^crates/server/src/(proto|client)\.rs:' || true)"
one_front '`listener.accept()`' "$(grep -rn -F 'listener.accept()' crates/server/src || true)"
# One Q application, one least-squares solve: `Q`/`Q^T` are applied by
# replaying the stored reflector tree (`TileQrFactors::apply`), and the one
# back-substitution against `R` is `try_solve_ls`'s, in factors.rs.
hits=$(grep -rn --include='*.rs' -F 'back_substitute(' crates/core/src || true)
if [ "$(printf '%s\n' "$hits" | cut -d: -f1 | sort -u)" != crates/core/src/factors.rs ]; then
    echo "guard: \`back_substitute(\` may be called only from crates/core/src/factors.rs:" >&2
    echo "$hits" >&2
    dup=1
fi
hits=$(grep -rn -F '{{\"' crates/server/src crates/cli/src || true)
if [ -n "$hits" ]; then
    echo "guard: hand-assembled JSON; build it with pulsar_tuner::json::obj:" >&2
    echo "$hits" >&2
    dup=1
fi
# The flat array stays flat (grep only, always on): firing labels are
# closures the runtime evaluates only when tracing, a channel queue is never
# a mutex-guarded deque again, and queues are addressed by arena index, not
# held through an `Arc` each. No crate declares an `unsafe trait`: its
# contract would be a second hand-argued thread-safety claim outside the
# channel queue. The simulator never scans the op list for the ops touching
# a row: its tile edges come from the one dataflow, `row_hops`.
forbid() { # <pattern> <why> <dir>...: no hit anywhere under the dirs
    pat=$1; why=$2; shift 2
    hits=$(grep -rn --include='*.rs' -F "$pat" "$@" || true)
    if [ -n "$hits" ]; then
        echo "guard: \`$pat\` $why:" >&2
        echo "$hits" >&2
        dup=1
    fi
}
forbid 'set_label(format!' 'formats a label on every firing; pass a closure' \
    crates/*/src examples
forbid 'Mutex<VecDeque<Packet>>' 'puts a lock back on the readiness path' crates/runtime/src
forbid 'Arc<ChannelQueue>' 'holds a queue outside the run arena' crates/runtime/src
forbid 'unsafe trait' 'puts a thread-safety contract outside the channel queue' crates/*/src
forbid '.touches(' 'rescans the op list; read core::plan::row_hops' crates/sim/src
forbid 'apply_q_vsa' 'applies Q beside the stored tree; call TileQrFactors::apply_q/apply_qt' \
    crates/*/src
forbid 'mod lsqr' 'adds a second least-squares driver; solve with TileQrFactors::try_solve_ls' \
    crates/*/src
# One walker, one pool dispatch, a rule taken from the shape. The plan
# walker is the one executor beside the array, and its parallel domain
# stage runs on the warm VsaPool's workers, so core spawns no thread of its
# own; the service runs a tall job through its one batch path (typed panic,
# retry budget, respawn), never through a TSQR call of its own; the pool
# has one entry point, `run_scoped`; and whether a job walks follows from
# its grid aspect against one constant (`TSQR_MIN_ASPECT`, in the
# exactly-one-file list above), never from a profile field.
forbid 'thread::scope' 'spawns threads beside the warm pool; use VsaPool::run_scoped' crates/core/src
forbid 'thread::spawn' 'spawns threads beside the warm pool; use VsaPool::run_scoped' crates/core/src
forbid 'tile_qr_tsqr' 'runs beside the batch path; a tall job walks in tile_qr_vsa_batch_pooled' \
    crates/server/src
forbid 'tsqr_min_aspect' 'makes the tall-grid rule a knob; read pulsar_core::TSQR_MIN_ASPECT' \
    crates/*/src
forbid 'fn run_jobs' 'adds a second pool entry point; dispatch through VsaPool::run_scoped' \
    crates/*/src
# One way into the profile table: `tune --profile` writes it offline, and
# `factor --profile` / `submit --profile` read it through one function. The
# service neither loads, edits nor saves a table, so a write-only online
# tuner path (a refiner module, a serve-side profile path) cannot come back
# unnoticed, nor a policy constructor on the plan that no verb reaches.
forbid 'mod refine' 'adds an online refiner; the table is written offline by tune --profile' \
    crates/*/src
forbid 'Refiner' 'adds an online refiner; the table is written offline by tune --profile' \
    crates/*/src
forbid 'profile_path' 'hands the service a profile table it never reads' crates/*/src
forbid 'fn with_policy' 'adds a policy constructor no verb reaches; call PlanPolicy::choose' \
    crates/*/src
[ "$dup" -eq 0 ] || exit 1

cargo clippy --offline --workspace --all-targets -- -D warnings
cargo build --offline --workspace --release
cargo test --offline --workspace -q

# The linalg suite again under each forcible GEMM microkernel tier, so a
# bug in one tier's microkernel cannot hide behind runtime dispatch picking
# another. The env override clamps to what the CPU supports, so these runs
# are safe (if degenerate) on hosts without the wider ISA. The scalar tier
# also reruns cross-executor bit-identity, so the fused small-block apply's
# plain multiply-add body is held to it as well as its FMA body.
PULSAR_GEMM_TIER=scalar cargo test --offline -p pulsar-linalg -q
PULSAR_GEMM_TIER=avx2 cargo test --offline -p pulsar-linalg -q
PULSAR_GEMM_TIER=scalar cargo test --offline -p pulsar-core --test engine_equivalence -q

# Optional: BENCH=1 ./scripts/check.sh also smoke-runs the kernel bench
# harness (few samples), refreshes BENCH_kernels.json, runs the
# factor-store verb benchmark into BENCH_solve.json (which fails unless
# the streaming update absorbs rows faster than re-factoring), and runs
# the shape sweep into BENCH_shapes.json (which fails unless tuned plans
# beat the paper's fixed plan on every shape and the TSQR fast path wins
# by >= 1.2x on the tall-skinny ones).
if [ "${BENCH:-0}" = "1" ]; then
    CRITERION_SAMPLE_SIZE="${CRITERION_SAMPLE_SIZE:-3}" sh scripts/bench_kernels.sh
    CRITERION_SAMPLE_SIZE="${CRITERION_SAMPLE_SIZE:-3}" sh scripts/bench_solve.sh
    sh scripts/bench_shapes.sh
fi

# Optional: SERVE=1 ./scripts/check.sh smoke-tests the persistent QR
# service end-to-end through the release binary: start a daemon, drive it
# with verified submits (one racing a cancel — either outcome is fine, one
# burst whose batches the daemon walks, one job per pool worker, and one
# tall job it walks alone),
# drain it, and require a walked batch and a clean exit.
if [ "${SERVE:-0}" = "1" ]; then
    serve_out=$(mktemp)
    ./target/release/pulsar-qr serve --threads 2 --stats true > "$serve_out" &
    serve_pid=$!
    addr=""
    for _ in $(seq 1 50); do
        addr=$(awk '/^SERVE/{print $2}' "$serve_out")
        [ -n "$addr" ] && break
        sleep 0.1
    done
    [ -n "$addr" ] || { echo "SERVE smoke: daemon never announced" >&2; exit 1; }
    ./target/release/pulsar-qr submit --addr "$addr" --rows 96 --cols 32 --nb 8
    ./target/release/pulsar-qr submit --addr "$addr" --rows 64 --cols 64 \
        --nb 16 --tree binary --seed 9
    ./target/release/pulsar-qr submit --addr "$addr" --rows 256 --cols 64 \
        --nb 8 --cancel true
    ./target/release/pulsar-qr submit --addr "$addr" --rows 32 --cols 16 \
        --nb 8 --burst 8
    # A tall job (grid aspect 32) runs alone on the walker.
    ./target/release/pulsar-qr submit --addr "$addr" --rows 256 --cols 8 --nb 8
    # Factor-store verbs: keep a factorization, then solve / apply-q /
    # stream rows against its handle (each self-verifies its oracle).
    keep_out=$(./target/release/pulsar-qr submit --addr "$addr" --rows 96 \
        --cols 32 --nb 8 --seed 13 --keep true)
    echo "$keep_out"
    handle=$(echo "$keep_out" | awk '/^HANDLE/{print $2}')
    [ -n "$handle" ] || { echo "SERVE smoke: no HANDLE line" >&2; exit 1; }
    ./target/release/pulsar-qr submit --addr "$addr" --verb solve \
        --handle "$handle" --rows 96 --cols 32 --seed 13 --rhs 2
    ./target/release/pulsar-qr submit --addr "$addr" --verb apply-q \
        --handle "$handle" --rows 96 --cols 32 --seed 13
    ./target/release/pulsar-qr submit --addr "$addr" --verb update \
        --handle "$handle" --rows 96 --cols 32 --seed 13 --append-rows 16
    drain_out=$(./target/release/pulsar-qr drain --addr "$addr")
    echo "$drain_out"
    walked=$(echo "$drain_out" | grep -o '"batches_walked":[0-9]*' | cut -d: -f2)
    [ "${walked:-0}" -ge 1 ] || { echo "SERVE smoke: no batch was walked" >&2; exit 1; }
    wait "$serve_pid"
    rm -f "$serve_out"
    echo "SERVE smoke: ok"
fi

# Optional: CKPT_FUZZ=1 ./scripts/check.sh widens the checkpoint-corruption
# property sweep (round-trip / truncation / bit-flip cases over the
# checkpoint encoding; see crates/runtime/tests/checkpoint_props.rs).
if [ "${CKPT_FUZZ:-0}" = "1" ]; then
    CKPT_FUZZ=1 cargo test --offline -p pulsar-runtime --test checkpoint_props
fi

# Optional: CHAOS=1 ./scripts/check.sh widens the fault-injection suite to a
# larger seed sweep (CHAOS_SWEEP seeds of drop/delay/corrupt/truncate chaos
# against real QR runs; see tests/chaos.rs) and proves kill -> resume
# end-to-end through the real binary: a 3-rank TCP run with periodic
# checkpoints is crashed via the fault injector, then `resume` must finish
# it from the surviving epoch with exit code 0 (R verified bit-identical
# against the SMP reference inside the workers).
if [ "${CHAOS:-0}" = "1" ]; then
    CHAOS_SWEEP="${CHAOS_SWEEP:-16}" \
        cargo test --offline -p pulsar --test chaos -- --nocapture
    ckpt_dir=$(mktemp -d)
    if ./target/release/pulsar-qr launch --nodes 3 --rows 288 --cols 72 \
        --nb 8 --heartbeat-ms 50 --checkpoint-dir "$ckpt_dir" \
        --checkpoint-every-ms 25 --fault-plan kill=1@40; then
        echo "CHAOS resume e2e: the killed launch unexpectedly succeeded" >&2
        rm -rf "$ckpt_dir"
        exit 1
    fi
    ./target/release/pulsar-qr resume "$ckpt_dir"
    rm -rf "$ckpt_dir"
    echo "CHAOS resume e2e: ok"

    # Serve crash/recover e2e through the release binary: keep a
    # factorization in a durable store, SIGKILL the daemon mid-traffic
    # (no drain, no compaction — the WAL tail is whatever the crash left),
    # restart on the same store path, and require the pre-crash handle to
    # solve with full verification against the seeded oracle.
    store_dir=$(mktemp -d)
    serve_out=$(mktemp)
    ./target/release/pulsar-qr serve --threads 2 --store-path "$store_dir" \
        > "$serve_out" &
    serve_pid=$!
    addr=""
    for _ in $(seq 1 50); do
        addr=$(awk '/^SERVE/{print $2}' "$serve_out")
        [ -n "$addr" ] && break
        sleep 0.1
    done
    [ -n "$addr" ] || { echo "CHAOS serve: daemon never announced" >&2; exit 1; }
    keep_out=$(./target/release/pulsar-qr submit --addr "$addr" --rows 96 \
        --cols 32 --nb 8 --seed 29 --keep true --timeout-ms 5000 \
        --retry-for-ms 2000)
    handle=$(echo "$keep_out" | awk '/^HANDLE/{print $2}')
    [ -n "$handle" ] || { echo "CHAOS serve: no HANDLE line" >&2; exit 1; }
    # Mid-traffic: a job is in flight when the SIGKILL lands; its client
    # fails with a transport error, which is the expected outcome.
    ./target/release/pulsar-qr submit --addr "$addr" --rows 256 --cols 64 \
        --nb 8 --timeout-ms 5000 & victim_pid=$!
    kill -9 "$serve_pid"
    wait "$serve_pid" 2>/dev/null || true
    wait "$victim_pid" 2>/dev/null || true
    ./target/release/pulsar-qr serve --threads 2 --store-path "$store_dir" \
        > "$serve_out" &
    serve_pid=$!
    addr=""
    for _ in $(seq 1 50); do
        addr=$(awk '/^SERVE/{print $2}' "$serve_out")
        [ -n "$addr" ] && break
        sleep 0.1
    done
    [ -n "$addr" ] || { echo "CHAOS serve: restart never announced" >&2; exit 1; }
    # The handle kept before the crash must be resident again and solve
    # correctly (the verb re-derives the oracle from the same seed).
    ./target/release/pulsar-qr submit --addr "$addr" --verb solve \
        --handle "$handle" --rows 96 --cols 32 --seed 29 --rhs 2 \
        --timeout-ms 5000
    ./target/release/pulsar-qr drain --addr "$addr" --timeout-ms 5000
    wait "$serve_pid"
    rm -rf "$store_dir" "$serve_out"
    echo "CHAOS serve crash/recover e2e: ok"

    # Router failover e2e through the release binary: 3 worker nodes
    # behind a `route` front end, one SIGKILLed mid-traffic. Zero
    # accepted-job loss is required — the in-flight burst must still
    # verify end-to-end (the victim's jobs re-dispatched to survivors
    # under their original idempotency keys), a pre-crash routed handle
    # on a survivor must still solve, and the dead node's handle must
    # fail typed with the NodeLost exit code. Replication is disabled so
    # the healing is the ledger's re-dispatch, not a masking replica.
    route_out=$(mktemp)
    ./target/release/pulsar-qr route --heartbeat-ms 20 --probe-timeout-ms 60 \
        --replicate-under-kb 0 > "$route_out" &
    route_pid=$!
    raddr=""
    for _ in $(seq 1 50); do
        raddr=$(awk '/^ROUTE/{print $2}' "$route_out")
        [ -n "$raddr" ] && break
        sleep 0.1
    done
    [ -n "$raddr" ] || { echo "CHAOS route: router never announced" >&2; exit 1; }
    w1_pid=""; w2_pid=""; w3_pid=""
    for i in 1 2 3; do
        w_out=$(mktemp)
        ./target/release/pulsar-qr serve --threads 2 \
            --fault-plan sched-delay-ms=150 > "$w_out" &
        w_pid=$!
        waddr=""
        for _ in $(seq 1 50); do
            waddr=$(awk '/^SERVE/{print $2}' "$w_out")
            [ -n "$waddr" ] && break
            sleep 0.1
        done
        [ -n "$waddr" ] || { echo "CHAOS route: worker $i never announced" >&2; exit 1; }
        node=$(./target/release/pulsar-qr join --addr "$raddr" --worker "$waddr" \
            | awk '/^NODE/{print $2}')
        [ "$node" = "$i" ] || { echo "CHAOS route: worker $i joined as node $node" >&2; exit 1; }
        eval "w${i}_pid=\$w_pid"
        rm -f "$w_out"
    done
    # Two kept factors: placement ties round-robin on total placed, so
    # they land on nodes 1 and 2 (the handles say so).
    h1=$(./target/release/pulsar-qr submit --addr "$raddr" --rows 96 --cols 32 \
        --nb 8 --seed 31 --keep true --timeout-ms 10000 | awk '/^HANDLE/{print $2}')
    h2=$(./target/release/pulsar-qr submit --addr "$raddr" --rows 96 --cols 32 \
        --nb 8 --seed 33 --keep true --timeout-ms 10000 | awk '/^HANDLE/{print $2}')
    case "$h1" in 1:*) ;; *) echo "CHAOS route: first keep not on node 1: $h1" >&2; exit 1;; esac
    case "$h2" in 2:*) ;; *) echo "CHAOS route: second keep not on node 2: $h2" >&2; exit 1;; esac
    # Burst in the background; the slowed worker schedulers keep its jobs
    # in flight long enough for the SIGKILL to land mid-traffic.
    burst_out=$(mktemp)
    ./target/release/pulsar-qr submit --addr "$raddr" --rows 32 --cols 16 \
        --nb 8 --burst 12 --timeout-ms 30000 --retry-for-ms 10000 \
        > "$burst_out" &
    burst_pid=$!
    sleep 0.1
    kill -9 "$w2_pid"
    wait "$burst_pid" || { cat "$burst_out" >&2; \
        echo "CHAOS route: accepted jobs were lost" >&2; exit 1; }
    grep -q "verification OK" "$burst_out" || { cat "$burst_out" >&2; exit 1; }
    ./target/release/pulsar-qr submit --addr "$raddr" --verb solve \
        --handle "$h1" --rows 96 --cols 32 --seed 31 --rhs 2 --timeout-ms 10000
    rc=0
    ./target/release/pulsar-qr submit --addr "$raddr" --verb solve \
        --handle "$h2" --rows 96 --cols 32 --seed 33 --rhs 2 \
        --timeout-ms 10000 || rc=$?
    [ "$rc" -eq 11 ] || { echo "CHAOS route: expected exit 11 (node lost), got $rc" >&2; exit 1; }
    drain_out=$(./target/release/pulsar-qr drain --addr "$raddr" --timeout-ms 10000)
    echo "$drain_out"
    # The kill landed mid-traffic: at least one of the victim's in-flight
    # jobs was re-dispatched to a survivor, and nothing was lost.
    redisp=$(echo "$drain_out" | grep -o '"redispatched":[0-9]*' | cut -d: -f2)
    [ "${redisp:-0}" -ge 1 ] || { echo "CHAOS route: no job was re-dispatched" >&2; exit 1; }
    echo "$drain_out" | grep -q '"node_lost":0' || \
        { echo "CHAOS route: a fire-and-forget job was lost" >&2; exit 1; }
    wait "$route_pid"
    wait "$w1_pid"
    wait "$w3_pid"
    if wait "$w2_pid" 2>/dev/null; then
        echo "CHAOS route: victim exited cleanly despite SIGKILL" >&2; exit 1
    fi
    rm -f "$route_out" "$burst_out"
    echo "CHAOS route failover e2e: ok"
fi

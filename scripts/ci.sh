#!/usr/bin/env bash
# The repository's CI gate: formatting, lints (warnings are errors), the
# release build, and the full test suite. Run from the repository root.
set -euo pipefail

echo "=== cargo fmt --check ==="
cargo fmt --all --check

echo "=== cargo clippy (deny warnings) ==="
cargo clippy --workspace --all-targets -- -D warnings

echo "=== cargo doc (deny warnings) ==="
# Broken or private intra-doc links fail the gate, so a deleted item
# cannot leave a dangling reference behind in the docs.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "=== cargo build --release ==="
cargo build --release

echo "=== cargo test (every crate) ==="
cargo test --workspace -q

echo "=== pooled suites on four pool threads ==="
# The CI host may have one core, which gives the pool a single worker and
# hides cross-worker races; a fixed budget of four threads interleaves
# three workers plus the submitter over every pooled path: the pool
# itself, the nn gradient fan-out, the executor engine's channel groups
# (parallel_chunks_for) and the DSE miss fan-out (parallel_map).
ZFGAN_THREADS=4 cargo test -q -p zfgan-pool -p zfgan-tensor -p zfgan-nn
ZFGAN_THREADS=4 cargo test -q -p zfgan-dataflow -p zfgan-dse
ZFGAN_THREADS=4 cargo test -q --test pool --test exec_engine --test exec_zero_alloc

echo "=== tensor suite under ZFGAN_NO_SIMD=1 ==="
# The portable scalar kernels must pass the same suite as the runtime-
# detected SIMD kernels — the microkernel dispatch table's fallback
# contract.
ZFGAN_NO_SIMD=1 cargo test -q -p zfgan-tensor

echo "=== fault-injection smoke campaign ==="
# Fixed seed; the binary exits non-zero if any resilience invariant is
# violated (no detections, silent accumulator corruptions, training
# failing to complete under rollback).
ZFGAN_FAULTS_SEED=2024 cargo run -q --release -p zfgan-bench --bin faults

echo "=== telemetry smoke gate ==="
# Two separate same-seed processes must produce (a) trace files that
# parse as Chrome-trace JSON (trace --check re-parses them) and (b)
# byte-identical deterministic sections — the observability layer's
# reproducibility contract.
tdir="$(mktemp -d)"
trap 'rm -rf "$tdir"' EXIT
cargo run -q --release -p zfgan -- trace --seed 2024 --out "$tdir/t1.json" > /dev/null
cargo run -q --release -p zfgan -- trace --seed 2024 --out "$tdir/t2.json" > /dev/null
cargo run -q --release -p zfgan -- trace --check "$tdir/t1.json" | grep '^deterministic:' > "$tdir/d1"
cargo run -q --release -p zfgan -- trace --check "$tdir/t2.json" | grep '^deterministic:' > "$tdir/d2"
diff "$tdir/d1" "$tdir/d2"
cargo run -q --release -p zfgan -- sweep cgan --trace-out "$tdir/s1.json" > /dev/null
cargo run -q --release -p zfgan -- sweep cgan --trace-out "$tdir/s2.json" > /dev/null
cargo run -q --release -p zfgan -- trace --check "$tdir/s1.json" | grep '^deterministic:' > "$tdir/sd1"
cargo run -q --release -p zfgan -- trace --check "$tdir/s2.json" | grep '^deterministic:' > "$tdir/sd2"
diff "$tdir/sd1" "$tdir/sd2"
echo "telemetry deterministic sections are byte-identical"

echo "=== Q8.8 SIMD byte-identity sweep ==="
# The vectorized fixed-point microkernel must reproduce the scalar Fx
# semantics bit-for-bit: the deterministic Q8.8 conv sweep's transcript
# (digests of every result's raw i16 payload) is diffed between a
# SIMD-dispatched run and a ZFGAN_NO_SIMD=1 run.
cargo run -q --release -p zfgan-bench --bin fxsweep > "$tdir/fx_simd.txt"
ZFGAN_NO_SIMD=1 cargo run -q --release -p zfgan-bench --bin fxsweep > "$tdir/fx_scalar.txt"
diff "$tdir/fx_simd.txt" "$tdir/fx_scalar.txt"
echo "Q8.8 sweep transcripts are byte-identical"

echo "=== forced-kernel dispatch sweep ==="
# Every GEMM dispatch path must uphold both bit-equality families on its
# own: pin each engine via ZFGAN_FORCE_KERNEL, run the tensor suite on the
# scalar kernels (the broadest portable surface), and byte-diff the Q8.8
# sweep transcript against the dispatched run above.
for path in packed ikj smallm; do
    ZFGAN_NO_SIMD=1 ZFGAN_FORCE_KERNEL="$path" cargo test -q -p zfgan-tensor
    ZFGAN_FORCE_KERNEL="$path" cargo run -q --release -p zfgan-bench --bin fxsweep \
        > "$tdir/fx_$path.txt"
    diff "$tdir/fx_simd.txt" "$tdir/fx_$path.txt"
    echo "forced $path: tensor suite + Q8.8 transcript OK"
done

echo "=== bench smoke (pool + workspace + microkernel regression gates) ==="
# Short measurement windows; each harness asserts its own gate (packed
# GEMM >= 4x vs naive, packed train step >= 2x vs the reference engine,
# exec engine >= 3x headline / >= 1.5x wgrad vs the scalar oracle).
# ZFGAN_RESULTS_DIR keeps the quick numbers out of the tracked results/
# sidecars. Two full rounds: every run also appends its rows to the
# bench-history ledger, and the perf gate below compares round 2 against
# round 1's rolling baseline.
#
# The gates are min-based, but on the one-core CI host whole processes
# still shift by ~30% (allocation-address luck aliases the baselines'
# entire distribution, not single samples — a paired in-process probe
# shows forced-vs-dispatched within 1.3%), so a harness gets up to three
# attempts before its gate counts as a regression; a real regression
# fails every fresh process the same way. Every attempt's transcript is
# kept: the ledger gate below sums the "[appended N rows" lines across
# all attempts, failed ones included (rows are appended before the gates
# assert).
bench_smoke() {
    bench="$1" ms="$2" out_prefix="$3"
    for try in 1 2 3; do
        if ZFGAN_BENCH_MS="$ms" ZFGAN_RESULTS_DIR="$tdir/results" \
            cargo bench -q -p zfgan-bench --bench "$bench" \
            > "${out_prefix}_try$try.txt" 2>&1; then
            return 0
        fi
        echo "bench $bench attempt $try failed a gate; retrying" >&2
        # Noise episodes span minutes, not samples; give one a chance to
        # pass instead of burning the remaining attempts inside it.
        sleep 20
    done
    cat "${out_prefix}_try3.txt" >&2
    return 1
}
for round in 1 2; do
    bench_smoke gemm 100 "$tdir/bench_gemm_$round"
    bench_smoke trainstep 25 "$tdir/bench_trainstep_$round"
    # Exec engine smoke: asserts the fast engine holds >= 3x over the
    # scalar oracle on the headline forward/transposed executors.
    bench_smoke exec 50 "$tdir/bench_exec_$round"
    # DSE engine smoke: asserts a warm-cache fig15 sweep is >= 10x faster
    # than cold with a byte-identical stream.
    bench_smoke dse 25 "$tdir/bench_dse_$round"
    echo "bench gates passed (round $round)"
done

echo "=== perf ledger + regression gate ==="
# Every harness prints "[appended N rows to ...]" after writing its ledger
# rows; the ledger must hold exactly the sum of what the harnesses said
# they appended (no dropped or duplicated rows). Deriving the expectation
# from the output keeps this gate honest when a bench adds or removes a
# measured series.
expected="$(sed -n 's/^\[appended \([0-9][0-9]*\) rows to .*/\1/p' "$tdir"/bench_*.txt \
    | awk '{ sum += $1 } END { print sum }')"
rows="$(wc -l < "$tdir/results/bench_history.jsonl")"
if [ -z "$expected" ] || [ "$expected" -eq 0 ]; then
    echo "no '[appended N rows' lines found in bench output" >&2
    exit 1
fi
if [ "$rows" -ne "$expected" ]; then
    echo "bench_history.jsonl has $rows rows, harnesses reported $expected" >&2
    exit 1
fi
# Smoke windows are tiny (25-50 ms), so run-to-run noise well exceeds the
# 35 % default; widen the floor like the other bench gates' 3-4x margins.
ZFGAN_RESULTS_DIR="$tdir/results" cargo run -q --release -p zfgan -- perf --check --tolerance 120
echo "perf ledger accumulated $rows rows; --check passed on identical runs"

echo "=== report byte-identity gate ==="
# Two same-seed attribution reports must be byte-identical end to end
# (all quantities are integers derived from seeded cycle state), and the
# shared trace/report validator must accept the report JSON and print the
# same deterministic section for both.
cargo run -q --release -p zfgan -- report --seed 2024 --out "$tdir/r1.json" \
    | grep -v '^report written to ' > "$tdir/rout1.txt"
cargo run -q --release -p zfgan -- report --seed 2024 --out "$tdir/r2.json" \
    | grep -v '^report written to ' > "$tdir/rout2.txt"
diff "$tdir/r1.json" "$tdir/r2.json"
diff "$tdir/rout1.txt" "$tdir/rout2.txt"
cargo run -q --release -p zfgan -- trace --check "$tdir/r1.json" | grep '^deterministic:' > "$tdir/rd1"
cargo run -q --release -p zfgan -- trace --check "$tdir/r2.json" | grep '^deterministic:' > "$tdir/rd2"
diff "$tdir/rd1" "$tdir/rd2"
echo "attribution reports are byte-identical"

echo "=== serve-metrics smoke ==="
# Start the scrape endpoint on an ephemeral port, scrape /metrics with
# the built-in TcpStream client, assert the self-metric counter line,
# and let the --max-requests bound shut the server down cleanly.
cargo run -q --release -p zfgan -- serve-metrics --addr 127.0.0.1:0 --max-requests 1 \
    > "$tdir/serve.log" &
serve_pid=$!
for _ in $(seq 1 100); do
    grep -q 'serving metrics' "$tdir/serve.log" && break
    sleep 0.1
done
addr="$(sed -n 's|.*http://\([0-9.:]*\)/metrics.*|\1|p' "$tdir/serve.log")"
cargo run -q --release -p zfgan -- serve-metrics --scrape "$addr" > "$tdir/scrape.txt"
grep -q 'serve_requests_total{path="/metrics"} 1' "$tdir/scrape.txt"
wait "$serve_pid"
echo "serve-metrics scrape round-trip passed"

echo "=== executor trace byte-identity across pool widths ==="
# A traced ZFOST execution's deterministic telemetry section must be
# byte-identical whether the engine's channel-group fan-out runs inline
# or across four pool workers.
ZFGAN_THREADS=1 cargo run -q --release -p zfgan -- trace --arch zfost --seed 2024 \
    --out "$tdir/x1.json" > /dev/null
ZFGAN_THREADS=4 cargo run -q --release -p zfgan -- trace --arch zfost --seed 2024 \
    --out "$tdir/x4.json" > /dev/null
cargo run -q --release -p zfgan -- trace --check "$tdir/x1.json" | grep '^deterministic:' > "$tdir/xd1"
cargo run -q --release -p zfgan -- trace --check "$tdir/x4.json" | grep '^deterministic:' > "$tdir/xd4"
diff "$tdir/xd1" "$tdir/xd4"
echo "executor trace is byte-identical across pool widths"

echo "=== pooled DSE byte-identity ==="
# An uncached fig15 sweep computes every cell as a miss in one pool
# batch; its canonical stream must be byte-identical whether that batch
# runs inline or across four pool workers (order-preserving merge). The
# four-thread run's telemetry must show pool tasks, so the gate fails if
# the fan-out ever stops going through the pool.
env -u ZFGAN_DSE_CACHE ZFGAN_THREADS=1 cargo run -q --release -p zfgan -- dse fig15 \
    --out "$tdir/pool1.jsonl" > /dev/null
env -u ZFGAN_DSE_CACHE ZFGAN_THREADS=4 cargo run -q --release -p zfgan -- dse fig15 \
    --out "$tdir/pool4.jsonl" --telemetry > "$tdir/pool4.txt"
diff "$tdir/pool1.jsonl" "$tdir/pool4.jsonl"
grep -Eq '^ *pool_tasks_total +[1-9]' "$tdir/pool4.txt"
echo "dse stream is byte-identical across pool widths"

echo "=== crash-resume gate ==="
# The deterministic crash-injection campaign: kill train children at
# seeded points (before-publish, torn mid-write, after-publish), resume
# from the surviving store, byte-diff the resumed deterministic section
# against an uninterrupted baseline; then corrupt stored checkpoint
# generations and assert detection + fallback. Exits non-zero on any
# violated durability invariant.
cargo run -q --release -p zfgan -- crashtest --seed 2024 --dir "$tdir/crashtest" > /dev/null
echo "crash-resume campaign passed"

echo "=== corrupted-store smoke ==="
# Train into a store, flip one byte of the newest generation, resume:
# the corruption must be detected (fallback note printed) and the
# resumed run must still match the uninterrupted baseline byte for byte.
cargo run -q --release -p zfgan -- train --seed 2024 --iters 4 > "$tdir/base.txt"
cargo run -q --release -p zfgan -- train --seed 2024 --iters 4 --dir "$tdir/cstore" > /dev/null
newest="$(ls "$tdir/cstore/train" | sort | tail -1)"
printf '\x01' | dd of="$tdir/cstore/train/$newest" bs=1 seek=40 count=1 conv=notrunc status=none
cargo run -q --release -p zfgan -- train --seed 2024 --iters 4 --dir "$tdir/cstore" --resume > "$tdir/resume.txt"
grep -q 'fallback: generation' "$tdir/resume.txt"
diff <(grep '^deterministic:' "$tdir/base.txt") <(grep '^deterministic:' "$tdir/resume.txt")
echo "corrupted store detected, fell back, resumed byte-identically"

echo "=== DSE service gate (cold shards -> warm -> corrupted cell) ==="
# Cold: two spawned shard children compute and publish the fig15 key
# space through the work-unit protocol; the parent then serves the whole
# batch out of the shared cache (pure hits by construction). Warm: a
# single-threaded rerun hits every cell. Corrupted: one flipped byte in a
# stored generation is detected, recomputed and republished. All three
# canonical streams must be byte-identical, and the dse_* counters must
# tell the true cache story each time.
dse_counter() { # file counter -> value (0 when the series is absent)
    sed -n "s/.*$2{namespace=\"fig15\"} *\([0-9][0-9]*\).*/\1/p" "$1" \
        | grep . || echo 0
}
ZFGAN_THREADS=4 cargo run -q --release -p zfgan -- dse fig15 \
    --cache "$tdir/dsecache" --shards 2 --out "$tdir/dse_cold.jsonl" \
    --telemetry > "$tdir/dse_cold.txt"
ZFGAN_THREADS=1 cargo run -q --release -p zfgan -- dse fig15 \
    --cache "$tdir/dsecache" --out "$tdir/dse_warm.jsonl" \
    --telemetry > "$tdir/dse_warm.txt"
cells="$(dse_counter "$tdir/dse_cold.txt" dse_cells_total)"
[ "$cells" -gt 0 ]
# The sharded cold parent and the warm rerun both serve pure hits.
for run in dse_cold dse_warm; do
    [ "$(dse_counter "$tdir/$run.txt" dse_cache_hits_total)" -eq "$cells" ]
    [ "$(dse_counter "$tdir/$run.txt" dse_cache_misses_total)" -eq 0 ]
done
# Flip one byte inside one cell's stored generation and rerun: exactly
# one miss, one republish, and the stream must not change.
victim="$(find "$tdir/dsecache" -name '*.zfc' -path '*fig15-*' | sort | head -1)"
printf '\x01' | dd of="$victim" bs=1 seek=60 count=1 conv=notrunc status=none
cargo run -q --release -p zfgan -- dse fig15 \
    --cache "$tdir/dsecache" --out "$tdir/dse_corrupt.jsonl" \
    --telemetry > "$tdir/dse_corrupt.txt"
[ "$(dse_counter "$tdir/dse_corrupt.txt" dse_cache_misses_total)" -eq 1 ]
[ "$(dse_counter "$tdir/dse_corrupt.txt" dse_published_total)" -eq 1 ]
diff "$tdir/dse_cold.jsonl" "$tdir/dse_warm.jsonl"
diff "$tdir/dse_cold.jsonl" "$tdir/dse_corrupt.jsonl"
echo "dse streams are byte-identical (cold shards, warm, corrupted cell)"

echo "CI gate passed."

#!/usr/bin/env sh
# Shard gate, in three parts:
#
#   1. Determinism — rerun the busy-dominated `busy` campaign at several
#      `--shards` counts and require every benchmark artifact to be
#      byte-identical to the single-shard run. Sharding is an execution
#      detail like `--threads` — the two-phase tick (parallel per-shard
#      compute on the persistent worker pool, then a serial commit in
#      router order) must be bit-exact for any shard count.
#
#   2. Pool vs reference — the `pool` suite (one PowerPunchFull 32x32 run
#      at moderate, non-saturated busy load) at --shards 4 must come out
#      byte-identical to the same suite under `--naive-tick`, the serial
#      struct-sweep reference.
#
#   3. Thread accounting — the pooled run's timing sidecar must report at
#      most `shards` thread creations (the pool spawns shards-1 workers
#      once, not per tick) and a non-zero pooled-tick count, proving the
#      sharded path actually took the pool and amortized its threads.
#
# Usage: scripts/shard_gate.sh [OUT_DIR] [SHARD_COUNTS]
# SHARD_COUNTS is a space-separated list compared against the "1" run
# (default "2 4"; every count must fit the suite's smallest mesh rows).
# Honors PP_FAST like every other campaign entry point.
set -eu

cd "$(dirname "$0")/.."

OUT="${1:-bench-out/shards}"
COUNTS="${2:-2 4}"

cargo build --release -q

target/release/punchsim-cli campaign --suite busy --name busy \
    --out "$OUT/s1" --no-cache --shards 1

for n in $COUNTS; do
    target/release/punchsim-cli campaign --suite busy --name busy \
        --out "$OUT/s$n" --no-cache --shards "$n"
    if ! cmp "$OUT/s1/BENCH_busy.json" "$OUT/s$n/BENCH_busy.json"; then
        echo "shard_gate: --shards $n changed the benchmark artifact" >&2
        exit 1
    fi
    echo "shard_gate: --shards $n byte-identical to --shards 1"
done
echo "shard_gate: artifacts byte-identical across shard counts (1 $COUNTS)"

# --- Part 2: the pooled fast path against the serial reference. ---

POOL_SHARDS=4
target/release/punchsim-cli campaign --suite pool --name pool \
    --out "$OUT/pool" --no-cache --shards "$POOL_SHARDS"
target/release/punchsim-cli campaign --suite pool --name pool \
    --out "$OUT/pool-naive" --no-cache --naive-tick
if ! cmp "$OUT/pool/BENCH_pool.json" "$OUT/pool-naive/BENCH_pool.json"; then
    echo "shard_gate: the pooled --shards $POOL_SHARDS run diverged from --naive-tick" >&2
    exit 1
fi
echo "shard_gate: pool suite byte-identical to --naive-tick (--shards $POOL_SHARDS)"

# --- Part 3: thread accounting in the timing sidecar. ---

SPAWNS=$(grep -o '"spawn_count": [0-9]*' "$OUT/pool/BENCH_pool.timing.json" |
    head -1 | awk '{print $2}')
TICKS=$(grep -o '"pool_ticks": [0-9]*' "$OUT/pool/BENCH_pool.timing.json" |
    head -1 | awk '{print $2}')
if [ -z "$SPAWNS" ] || [ -z "$TICKS" ]; then
    echo "shard_gate: missing pool counters in the timing sidecar" >&2
    exit 1
fi
if [ "$SPAWNS" -gt "$POOL_SHARDS" ]; then
    echo "shard_gate: pooled run created $SPAWNS threads (cap $POOL_SHARDS)" >&2
    exit 1
fi
if [ "$TICKS" -eq 0 ]; then
    echo "shard_gate: pooled run reports zero pool ticks" >&2
    exit 1
fi
echo "shard_gate: pooled run created $SPAWNS threads over $TICKS pooled ticks"

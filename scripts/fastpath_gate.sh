#!/usr/bin/env sh
# Fast-path gate: run one campaign suite twice — once on the fast path
# (the default: quiescence fast-forward, traffic host-skip and the SoA word
# sweep) and once with `--naive-tick` (the serial per-router struct-sweep
# reference) — then enforce the two properties the fast path is sold on:
#
#   1. The benchmark artifacts are byte-identical: the fast path must
#      never change observable results, only wall-clock.
#   2. The fast path's aggregate cycles/sec is at least MIN_RATIO x the
#      reference's, from the `.timing.json` sidecars. CI runs it on the
#      idle-dominated `fastpath` suite (fast-forward carries the win) and
#      on the busy-dominated `busy` suite (16x16/32x32 meshes, where the
#      SoA sweep carries it); both trip at 1.5x, far above noise but well
#      below the win the fast path must deliver.
#
# Usage: scripts/fastpath_gate.sh [SUITE] [OUT_DIR] [MIN_RATIO]
# Defaults: the fastpath suite into bench-out/<SUITE> at 1.5x. Honors
# PP_FAST like every other campaign entry point.
set -eu

cd "$(dirname "$0")/.."

SUITE="${1:-fastpath}"
OUT="${2:-bench-out/$SUITE}"
MIN_RATIO="${3:-1.5}"

cargo build --release -q

target/release/punchsim-cli campaign --suite "$SUITE" --name "$SUITE" \
    --out "$OUT/fast" --no-cache
target/release/punchsim-cli campaign --suite "$SUITE" --name "$SUITE" \
    --out "$OUT/naive" --no-cache --naive-tick

if ! cmp "$OUT/fast/BENCH_$SUITE.json" "$OUT/naive/BENCH_$SUITE.json"; then
    echo "fastpath_gate: the fast path changed the $SUITE artifact" >&2
    exit 1
fi
echo "fastpath_gate: $SUITE artifacts byte-identical across tick modes"

# First "cycles_per_sec" in each timing sidecar is the campaign aggregate
# (per-run entries follow it).
cps() {
    grep -o '"cycles_per_sec": [0-9.eE+-]*' "$1" | head -1 | awk '{print $2}'
}
FAST=$(cps "$OUT/fast/BENCH_$SUITE.timing.json")
NAIVE=$(cps "$OUT/naive/BENCH_$SUITE.timing.json")
if [ -z "$FAST" ] || [ -z "$NAIVE" ]; then
    echo "fastpath_gate: missing cycles_per_sec in timing sidecars" >&2
    exit 1
fi

echo "fastpath_gate: $SUITE fast=$FAST cyc/s naive=$NAIVE cyc/s (floor ${MIN_RATIO}x)"
awk -v f="$FAST" -v n="$NAIVE" -v min="$MIN_RATIO" 'BEGIN {
    if (n <= 0) { print "fastpath_gate: bad naive throughput"; exit 1 }
    ratio = f / n
    printf "fastpath_gate: speedup %.2fx\n", ratio
    if (ratio < min) {
        printf "fastpath_gate: fast path below %.2fx floor\n", min
        exit 1
    }
}'

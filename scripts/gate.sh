#!/usr/bin/env bash
# Unified release gate: runs every gate in the catalogue — build, the
# deep lattice differential harness, the clock-allocation gate, the
# telemetry-overhead gate, the daemon smoke, the crash-durability gate,
# and the gompaxlab accuracy gate — and prints one pass/fail summary
# table. Exits nonzero when any gate fails.
#
# Environment:
#   GO               go binary (default: go)
#   LAB_GRID         gompaxlab grid: default | short (default: default).
#                    Non-default grids are scored against
#                    BENCH_lab_short.json.
#   LAB_OUT          artifact/log directory (default: _lab)
#   GOMPAX_LAB_CASES randomized-harness case count (default: 500 here,
#                    the deep setting; plain `go test` uses its own
#                    defaults)
set -u

GO="${GO:-go}"
GRID="${LAB_GRID:-default}"
OUT="${LAB_OUT:-_lab}"
CASES="${GOMPAX_LAB_CASES:-500}"
mkdir -p "$OUT"

BENCH=BENCH_lab.json
if [ "$GRID" != "default" ]; then
    BENCH=BENCH_lab_short.json
fi

names=()
results=()
times=()
fail=0

run_gate() {
    local name="$1"
    shift
    local log="$OUT/gate-$name.log"
    local start=$SECONDS
    printf '== gate %-10s %s\n' "$name" "$*"
    if "$@" >"$log" 2>&1; then
        results+=("PASS")
    else
        results+=("FAIL")
        fail=1
        echo "-- $name failed; last lines of $log:"
        tail -n 15 "$log" | sed 's/^/   /'
    fi
    names+=("$name")
    times+=("$((SECONDS - start))s")
}

run_gate build     "$GO" build ./...
run_gate lattice   env GOMPAX_LAB_CASES="$CASES" "$GO" test -count=1 ./internal/lattice/latticecheck/
run_gate clock     env GOMPAX_CLOCK_GATE=1 "$GO" test -count=1 -run TestClockAllocGate .
run_gate telemetry env GOMPAX_TELEMETRY_GATE=1 "$GO" test -count=1 -run TestTelemetryOverheadGate .
run_gate serve     env GO="$GO" bash scripts/serve_smoke.sh
run_gate crash     env GO="$GO" bash scripts/crash_smoke.sh
# -traces exports per-scenario Chrome trace-event files under
# $OUT/traces/ (uploaded as CI artifacts; open in Perfetto).
run_gate accuracy  "$GO" run ./cmd/gompaxlab -grid "$GRID" -out "$OUT" -gate "$BENCH" -q -traces

echo
echo "release gate summary (grid=$GRID, logs in $OUT/)"
printf '%-10s  %-6s  %s\n' "gate" "status" "time"
for i in "${!names[@]}"; do
    printf '%-10s  %-6s  %s\n' "${names[$i]}" "${results[$i]}" "${times[$i]}"
done
# The accuracy gate's own per-floor table is the detail view.
if [ -f "$OUT/gate-accuracy.log" ]; then
    echo
    cat "$OUT/gate-accuracy.log"
fi

if [ "$fail" -ne 0 ]; then
    echo "release gate: FAIL"
    exit 1
fi
echo "release gate: PASS"

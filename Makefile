GO ?= go

.PHONY: build fmt-check vet test race chaos fuzz fuzz-smoke bench-smoke bench-lattice bench-selftest bench-clock telemetry-gate serve-smoke crash-gate lab-gate gate verify

build:
	$(GO) build ./...

# Fail when any Go file is not gofmt-clean. The benchmark's build
# directory holds a toolchain and module cache of its own, so it is
# not scanned.
fmt-check:
	@out=$$(find . -path ./.bench_build -prune -o -name '*.go' -print | xargs gofmt -l); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# -count=2 reruns every test twice in one process: the second pass
# catches tests that mutate shared state, and with -race it doubles
# the schedules the daemon's concurrent sessions are exercised under.
race:
	$(GO) test -race -count=2 ./...

# The chaos regressions run on short deterministic seed lists, so they
# are part of the normal test suite; this target runs just them.
chaos:
	$(GO) test -run 'Chaos|Corrupt|Fault|Resync|IdleTimeout' ./internal/wire/ ./internal/observer/ ./internal/race/ ./internal/serve/ -v

# Short bounded fuzz pass over the wire decoders, the fault pipeline,
# the observer session loop, the daemon handshake and the atoms
# compiled to slot reads.
fuzz:
	$(GO) test ./internal/wire/ -fuzz FuzzDecodeMessage -fuzztime 10s
	$(GO) test ./internal/wire/ -fuzz FuzzReceiver -fuzztime 10s
	$(GO) test ./internal/wire/ -fuzz FuzzSessionFaults -fuzztime 10s
	$(GO) test ./internal/observer/ -fuzz FuzzObserverSession -fuzztime 10s
	$(GO) test ./internal/serve/ -fuzz FuzzHandshake -fuzztime 10s
	$(GO) test ./internal/logic/ -fuzz FuzzSlotPred -fuzztime 10s

# Quick fuzz smoke for verify: a few seconds over the message decoder,
# the stream receiver the binaries run (strict and resync, v3 deltas,
# clocks bounded by the Hello), the session loop, the handshake and
# the compiled atoms, enough to catch a decoder, observer, admission
# or atom-compiler regression without stalling the gate.
fuzz-smoke:
	$(GO) test ./internal/wire/ -run '^$$' -fuzz FuzzDecodeMessage -fuzztime 5s
	$(GO) test ./internal/wire/ -run '^$$' -fuzz FuzzReceiver -fuzztime 5s
	$(GO) test ./internal/observer/ -run '^$$' -fuzz FuzzObserverSession -fuzztime 5s
	$(GO) test ./internal/serve/ -run '^$$' -fuzz FuzzHandshake -fuzztime 5s
	$(GO) test ./internal/logic/ -run '^$$' -fuzz FuzzSlotPred -fuzztime 5s

# Run every benchmark body once, so a benchmark that no longer builds
# or runs fails CI. It times nothing and writes no BENCH file.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Lattice exploration benchmarks: the level step on a never-violated
# grid, and offline vs online on a violating lattice (baseline in
# BENCH_lattice.json; regenerate it from this output when the explorer
# or the host changes).
bench-lattice:
	$(GO) test -run '^$$' -bench 'BenchmarkExplore' -benchmem -benchtime 5x .

# Benchmark self-test: build the perfbench module (its own Go module,
# outside `go test ./...`, importing gompax through a replace) and run
# every workload at tiny size on the default and held-out seeds,
# checking the exact metric set and zero failed sessions. This is the
# one check that catches a gompax API change breaking the benchmark,
# so make verify runs it.
bench-selftest:
	python3 perfbench/selftest.py

# Clock substrate gate: the BenchmarkPipelineClocks workloads on the
# persistent clock.Ref pipeline must allocate at least 20% less per op
# than the legacy vc.VC pipeline. Regenerates BENCH_clock.json from
# the measured numbers (alloc counts are deterministic, so this gate
# is safe on shared hardware).
bench-clock:
	GOMPAX_CLOCK_GATE=1 $(GO) test -count=1 -run TestClockAllocGate -v .

# Telemetry overhead gate: the BenchmarkExploreSequential workload with
# telemetry active must stay within 5% of the inactive run (baseline
# and budget in BENCH_telemetry.json).
telemetry-gate:
	GOMPAX_TELEMETRY_GATE=1 $(GO) test -count=1 -run TestTelemetryOverheadGate -v .

# Daemon smoke: boot gompaxd on an ephemeral port, drive the Fig. 6
# crossing and Peterson examples through real client connections, and
# require a clean SIGTERM drain with both verdicts in the store.
serve-smoke:
	GO=$(GO) bash scripts/serve_smoke.sh

# Crash durability gate: kill gompaxd at each deterministic crash
# point (and once externally with kill -9) under a 200-session mixed
# load, restart it on the same store, and require zero acked verdicts
# lost and every orphaned session reported as interrupted.
crash-gate:
	GO=$(GO) bash scripts/crash_smoke.sh

# Accuracy gate alone: run the gompaxlab scenario grid and check the
# precision/recall floors and perf budgets in BENCH_lab.json.
# LAB_GRID=short switches to the 8-scenario CI grid (scored against
# BENCH_lab_short.json via scripts/gate.sh, or pass -gate yourself).
lab-gate:
	$(GO) run ./cmd/gompaxlab -grid default -out _lab -gate BENCH_lab.json

# The unified release gate: every gate in the catalogue (build,
# lattice differential, clock allocations, telemetry overhead, daemon
# smoke, crash durability, scenario-lab accuracy) with one summary
# table. LAB_GRID=short shrinks the accuracy grid for CI.
gate:
	GO=$(GO) bash scripts/gate.sh

verify: build fmt-check vet race fuzz-smoke bench-smoke bench-clock bench-selftest telemetry-gate serve-smoke crash-gate

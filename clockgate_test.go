package gompax

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"testing"
)

// clockGateBudget is the minimum allocs/op reduction the persistent
// clock substrate must hold over the legacy vc.VC pipeline on both
// paper workloads.
const clockGateBudget = 20.0

type clockGateResult struct {
	Workload         string  `json:"workload"`
	Messages         int     `json:"messages"`
	LegacyAllocs     float64 `json:"legacy_allocs_per_op"`
	PersistentAllocs float64 `json:"persistent_allocs_per_op"`
	ReductionPct     float64 `json:"reduction_percent"`
	BudgetPct        float64 `json:"budget_percent"`
	MeetsBudget      bool    `json:"meets_budget"`
	PipelineRepeats  int     `json:"pipeline_repeats"`
}

type clockGateReport struct {
	Description string            `json:"description"`
	Command     string            `json:"command"`
	BudgetPct   float64           `json:"budget_percent"`
	Environment map[string]any    `json:"environment"`
	Results     []clockGateResult `json:"results"`
}

// TestClockAllocGate enforces the clock-substrate budget: running the
// BenchmarkPipelineClocks workloads (the Fig. 6 crossing example and
// Peterson's protocol, each stretched to pipelineRepeats observed
// executions) through the persistent pipeline must allocate at least 20%
// less per op than the legacy vc.VC pipeline. It regenerates
// BENCH_clock.json from the measured numbers, so the checked-in
// artifact always matches the gate that passed.
//
// Allocation counts are deterministic in a way wall-clock time is not,
// so this gate is safe on shared hardware; it still hides behind an
// env var so plain `go test ./...` stays fast:
// GOMPAX_CLOCK_GATE=1 make bench-clock.
func TestClockAllocGate(t *testing.T) {
	if os.Getenv("GOMPAX_CLOCK_GATE") == "" {
		t.Skip("set GOMPAX_CLOCK_GATE=1 to run the clock substrate alloc gate")
	}
	works, err := clockWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	report := clockGateReport{
		Description: "Clock substrate allocation gate (TestClockAllocGate): the observer pipeline of BenchmarkPipelineClocks — Algorithm A tracking, wire framing, strict receive, computation reconstruction — run on the persistent clock.Ref substrate (structure-sharing tracker, v3 delta wire) vs the legacy vc.VC substrate (cloning tracker, full-clock v2 wire, a fresh vector per layer boundary). allocs/op via testing.AllocsPerRun(10, ...). Lattice exploration is excluded: explorers consume clock.Ref values either way and are tracked by BENCH_lattice.json.",
		Command:     "GOMPAX_CLOCK_GATE=1 go test -count=1 -run TestClockAllocGate -v .",
		BudgetPct:   clockGateBudget,
		Environment: map[string]any{
			"goos":       runtime.GOOS,
			"goarch":     runtime.GOARCH,
			"cpus":       runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
		},
	}
	failed := false
	for _, w := range works {
		w := w
		var buf bytes.Buffer
		comp, err := pipelinePersistent(w, &buf)
		if err != nil {
			t.Fatal(err)
		}
		msgs := comp.Total()
		legacy := testing.AllocsPerRun(10, func() {
			var buf bytes.Buffer
			if _, err := pipelineLegacy(w, &buf); err != nil {
				t.Fatal(err)
			}
		})
		persistent := testing.AllocsPerRun(10, func() {
			var buf bytes.Buffer
			if _, err := pipelinePersistent(w, &buf); err != nil {
				t.Fatal(err)
			}
		})
		reduction := (legacy - persistent) / legacy * 100
		res := clockGateResult{
			Workload:         w.name,
			Messages:         msgs,
			LegacyAllocs:     legacy,
			PersistentAllocs: persistent,
			ReductionPct:     round2(reduction),
			BudgetPct:        clockGateBudget,
			MeetsBudget:      reduction >= clockGateBudget,
			PipelineRepeats:  pipelineRepeats,
		}
		report.Results = append(report.Results, res)
		t.Logf("%s: legacy %.0f allocs/op, persistent %.0f allocs/op, reduction %.1f%% (budget %.0f%%)",
			w.name, legacy, persistent, reduction, clockGateBudget)
		if !res.MeetsBudget {
			failed = true
		}
	}

	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, '\n')
	if err := os.WriteFile("BENCH_clock.json", out, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Log("wrote BENCH_clock.json")
	if failed {
		t.Fatalf("clock substrate gate failed: persistent pipeline must allocate ≥%.0f%% less than legacy (see BENCH_clock.json)", clockGateBudget)
	}
}

func round2(v float64) float64 {
	return float64(int(v*100+0.5)) / 100
}

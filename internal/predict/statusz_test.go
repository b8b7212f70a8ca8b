package predict

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"gompax/internal/lattice"
	"gompax/internal/logic"
	"gompax/internal/monitor"
	"gompax/internal/progs"
	"gompax/internal/telemetry"
	"gompax/internal/trace"
)

// TestStatuszGoldenFig6 pins the /statusz JSON produced after
// analyzing the paper's Fig. 6 trace: the snapshot must carry the full
// lattice geometry (7 cuts over 5 levels, widths 1-1-2-2-1) and the
// single predicted violation. Regenerate with GOMPAX_UPDATE_GOLDEN=1.
// Deliberately not parallel: it flips the global telemetry-active flag
// and reads the process-wide status registry.
func TestStatuszGoldenFig6(t *testing.T) {
	f, err := os.Open("../../testdata/crossing_fig6.trace")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	msgs, err := trace.ReadMessages(f)
	if err != nil {
		t.Fatal(err)
	}
	initial := logic.StateFromMap(map[string]int64{"x": -1, "y": 0, "z": 0})
	comp, err := lattice.NewComputation(initial, 2, msgs)
	if err != nil {
		t.Fatal(err)
	}
	prog := monitor.MustCompile(logic.MustParseFormula(progs.CrossingProperty))

	telemetry.SetActive(true)
	defer telemetry.SetActive(false)
	defer telemetry.ClearStatus("analysis")

	if _, err := Analyze(prog, comp, Options{}); err != nil {
		t.Fatal(err)
	}

	got, err := telemetry.StatuszJSON()
	if err != nil {
		t.Fatal(err)
	}
	// The msg package publishes a live process-global section whose
	// counters depend on which tests ran before this one; drop it so
	// the golden pins only the analysis geometry.
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatal(err)
	}
	delete(doc, "messaging")
	if got, err = json.MarshalIndent(doc, "", "  "); err != nil {
		t.Fatal(err)
	}
	got = append(bytes.TrimRight(got, "\n"), '\n')

	const golden = "../../testdata/fig6_statusz.json"
	if os.Getenv("GOMPAX_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("statusz snapshot drifted from %s:\n got: %s\nwant: %s", golden, got, want)
	}
}

// TestStatusPublicationLinear: while telemetry is active the analysis
// publishes a /statusz snapshot at every sealed level. Publishing must
// cost O(1) per level, not a copy of the whole LevelWidths profile, so
// a deep single-thread chain allocates about what it does with
// telemetry off.
func TestStatusPublicationLinear(t *testing.T) {
	const events = 4000 // 4,001 levels
	comp, _ := gridComputation(t, 1, events)
	prog := monitor.MustCompile(logic.MustParseFormula("g0 >= 0"))
	analyzeBytes := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Analyze(prog, comp, Options{})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Levels != events+1 {
			t.Fatalf("chain has %d levels, want %d", res.Stats.Levels, events+1)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	analyzeBytes() // warm the shared clock table
	inactive := analyzeBytes()
	telemetry.SetActive(true)
	defer telemetry.SetActive(false)
	defer telemetry.ClearStatus("analysis")
	active := analyzeBytes()
	if active > 2*inactive {
		t.Fatalf("telemetry active: %d B allocated, %.1f× the inactive run's %d B (bound 2×)",
			active, float64(active)/float64(inactive), inactive)
	}
	t.Logf("allocated: inactive %d B, active %d B (%.2f×)", inactive, active, float64(active)/float64(inactive))
}

package predict

import (
	"testing"
	"unsafe"

	"gompax/internal/lattice"
	"gompax/internal/logic"
	"gompax/internal/monitor"
)

// TestReserveLevelsSingleAllocation: the LevelWidths profile must be
// preallocated once from the computation's known level count, not
// regrown by append — on deep lattices repeated doubling both
// reallocates and copies quadratically.
func TestReserveLevelsSingleAllocation(t *testing.T) {
	const levels = 4096
	allocs := testing.AllocsPerRun(20, func() {
		var s Stats
		s.reserveLevels(levels + 1)
		for i := 0; i < levels; i++ {
			s.addLevel(1, 1)
		}
	})
	// One allocation: the reserveLevels make. Any append-driven regrowth
	// shows up as additional allocations per run.
	if allocs > 1 {
		t.Fatalf("appending %d level widths cost %v allocations per run, want 1 (preallocation regressed)", levels, allocs)
	}
}

// TestReserveLevelsStableBacking: addLevel must never move the backing
// array once reserved.
func TestReserveLevelsStableBacking(t *testing.T) {
	var s Stats
	s.reserveLevels(128)
	s.addLevel(1, 1)
	p0 := unsafe.Pointer(&s.LevelWidths[0])
	for i := 0; i < 127; i++ {
		s.addLevel(i, i)
	}
	if unsafe.Pointer(&s.LevelWidths[0]) != p0 {
		t.Fatal("LevelWidths backing array moved despite reservation")
	}
}

// TestReserveLevelsPreservesPrefix: reserving after widths were
// already recorded must keep them.
func TestReserveLevelsPreservesPrefix(t *testing.T) {
	var s Stats
	s.addLevel(3, 4)
	s.addLevel(5, 6)
	s.reserveLevels(64)
	if len(s.LevelWidths) != 2 || s.LevelWidths[0] != 3 || s.LevelWidths[1] != 5 {
		t.Fatalf("prefix lost: %v", s.LevelWidths)
	}
	if cap(s.LevelWidths) < 64 {
		t.Fatalf("cap %d, want >= 64", cap(s.LevelWidths))
	}
}

// TestAnalyzePreallocatesLevelWidths: the offline explorer hints the
// exact level count (total events + 1).
func TestAnalyzePreallocatesLevelWidths(t *testing.T) {
	comp, _ := gridComputation(t, 2, 4)
	prog := monitor.MustCompile(logic.MustParseFormula("g0 < 100"))
	res, err := Analyze(prog, comp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 2 threads × 4 events → 9 levels exactly.
	if len(res.Stats.LevelWidths) != 9 {
		t.Fatalf("%d levels, want 9", len(res.Stats.LevelWidths))
	}
	if cap(res.Stats.LevelWidths) != 9 {
		t.Errorf("LevelWidths cap %d, want exactly the hinted 9", cap(res.Stats.LevelWidths))
	}
}

// TestOnlineAllocsWithinOffline: Online runs the same level driver as
// Analyze, so feeding it a computation may cost only the stream
// buffering on top of what Analyze allocates for that computation. The
// pulse computation's 2,304 violating cuts (of 9,409) make any per-level
// rescan of the violations found so far show up as a multiple.
func TestOnlineAllocsWithinOffline(t *testing.T) {
	msgs, initial := pulseMessages(2, 48)
	comp, err := lattice.NewComputation(initial, 2, msgs)
	if err != nil {
		t.Fatal(err)
	}
	prog := monitor.MustCompile(logic.MustParseFormula(`!(v0 = 1 /\ v1 = 1)`))
	var off, on Result
	offline := testing.AllocsPerRun(5, func() {
		if off, err = Analyze(prog, comp, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	online := testing.AllocsPerRun(5, func() {
		on = runOnlineMode(t, prog, initial, 2, msgs)
	})
	for _, res := range []Result{off, on} {
		if res.Stats.Cuts != 9409 || len(res.Violations) != 2304 {
			t.Fatalf("pulse geometry drifted: %d cuts, %d violations", res.Stats.Cuts, len(res.Violations))
		}
	}
	if online > 1.25*offline {
		t.Fatalf("online allocates %.0f per run, %.2f× offline's %.0f (bound 1.25×)", online, online/offline, offline)
	}
	t.Logf("allocs per run: offline %.0f, online %.0f (%.2f×)", offline, online, online/offline)
}

// TestNewCutAllocations: a new cut costs at most two allocations, all
// costs of the analysis included. Its clock is one allocation, its
// pentry and value vector are carved from slabs, and its atoms are
// evaluated over the vector without building a State. The lattice is
// BenchmarkExploreViolating's (9,409 cuts, 2,304 violating), analyzed
// offline and online under both of its specs; the interval spec puts
// a second monitor state on some cuts.
func TestNewCutAllocations(t *testing.T) {
	msgs, initial := pulseMessages(2, 48)
	comp, err := lattice.NewComputation(initial, 2, msgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{`!(v0 = 1 /\ v1 = 1)`, `!(v0 = 1 /\ v1 = 1) \/ [v0 = 1, v1 = 1)`} {
		prog := monitor.MustCompile(logic.MustParseFormula(spec))
		var off, on Result
		offline := testing.AllocsPerRun(3, func() {
			if off, err = Analyze(prog, comp, Options{}); err != nil {
				t.Fatal(err)
			}
		})
		online := testing.AllocsPerRun(3, func() {
			on = runOnlineMode(t, prog, initial, 2, msgs)
		})
		for mode, allocs := range map[string]float64{"offline": offline, "online": online} {
			res := off
			if mode == "online" {
				res = on
			}
			if res.Stats.Cuts != 9409 || len(res.Violations) != 2304 {
				t.Fatalf("%s %s: pulse geometry drifted: %d cuts, %d violations", spec, mode, res.Stats.Cuts, len(res.Violations))
			}
			perCut := allocs / float64(res.Stats.Cuts)
			t.Logf("%s %s: %.0f allocations, %.2f per cut", spec, mode, allocs, perCut)
			if perCut > 2 {
				t.Errorf("%s %s: %.0f allocations for %d cuts, %.2f per cut; want at most 2", spec, mode, allocs, res.Stats.Cuts, perCut)
			}
		}
	}
}

// TestPentrySizeClass: a frontier cut stays 104 bytes. The level step
// carves pentrys from slabs of up to maxSlab entries, not one
// allocation each, so no size class absorbs a larger pentry: every
// added byte is paid by every cut.
func TestPentrySizeClass(t *testing.T) {
	if got := unsafe.Sizeof(pentry{}); got > 104 {
		t.Fatalf("pentry is %d bytes, want at most 104", got)
	}
}

// TestViolationSize: a violation is its cut plus the counterexample
// handle, 64 bytes. Result.Violations holds one per violating cut
// (thousands on a wide violating lattice), so a field that copies what
// the cut already holds is paid in every element and in every regrowth
// of the slice.
func TestViolationSize(t *testing.T) {
	if got := unsafe.Sizeof(Violation{}); got != 64 {
		t.Fatalf("Violation is %d bytes, want 64", got)
	}
}

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

// TestPentrySizeClass: a frontier cut is exactly one 128-byte
// allocation size class. One more word would put every cut in the
// 144-byte class: an earlier layout that kept a digest-collision link
// beside the atom valuation cost 5.6% more allocated bytes per event
// on the wide-lattice benchmark workload.
func TestPentrySizeClass(t *testing.T) {
	if got := unsafe.Sizeof(pentry{}); got > 128 {
		t.Fatalf("pentry is %d bytes, want at most 128 (one size class)", got)
	}
}

package predict

import (
	"fmt"
	"gompax/internal/clock"
	"reflect"
	"testing"

	"gompax/internal/event"
	"gompax/internal/lattice"
	"gompax/internal/logic"
	"gompax/internal/monitor"
	"gompax/internal/telemetry"
)

// counterTotals snapshots the lattice counters whose totals must be a
// pure function of (computation, formula) — identical in both
// analyzers.
type counterTotals struct {
	cuts, pairs, transitions, edges, dedup, levels, viols uint64
}

func snapshotTotals() counterTotals {
	return counterTotals{
		cuts:        mCuts.Value(),
		pairs:       mPairs.Value(),
		transitions: mTransitions.Value(),
		edges:       mEdges.Value(),
		dedup:       mDedupHits.Value(),
		levels:      mLevels.Value(),
		viols:       mViolations.Value(),
	}
}

func (a counterTotals) sub(b counterTotals) counterTotals {
	return counterTotals{
		cuts:        a.cuts - b.cuts,
		pairs:       a.pairs - b.pairs,
		transitions: a.transitions - b.transitions,
		edges:       a.edges - b.edges,
		dedup:       a.dedup - b.dedup,
		levels:      a.levels - b.levels,
		viols:       a.viols - b.viols,
	}
}

// gridMessages builds the k-threads × n-events grid computation's
// message list (no cross-thread causality: the widest lattice for its
// size, so dedup hits are plentiful).
func gridMessages(threads, perThread int) ([]event.Message, logic.State) {
	im := map[string]int64{}
	for i := 0; i < threads; i++ {
		im[fmt.Sprintf("g%d", i)] = 0
	}
	var msgs []event.Message
	for i := 0; i < threads; i++ {
		for k := 1; k <= perThread; k++ {
			comps := make([]uint64, threads)
			comps[i] = uint64(k)
			msgs = append(msgs, event.Message{
				Event: event.Event{Thread: i, Kind: event.Write, Var: fmt.Sprintf("g%d", i), Value: int64(k), Relevant: true},
				Clock: clock.New(comps),
			})
		}
	}
	return msgs, logic.StateFromMap(im)
}

// pulseMessages builds the pulse computation: each thread alternately
// writes its flag v<i> to 1 then back to 0, pulses times, with no
// cross-thread causality. The lattice has (2·pulses+1)^threads cuts,
// and under !(v0 = 1 /\ v1 = 1) the pulses² cuts where both of the
// first two flags are up violate.
func pulseMessages(threads, pulses int) ([]event.Message, logic.State) {
	im := map[string]int64{}
	var msgs []event.Message
	for i := 0; i < threads; i++ {
		name := fmt.Sprintf("v%d", i)
		im[name] = 0
		for k := 1; k <= 2*pulses; k++ {
			comps := make([]uint64, threads)
			comps[i] = uint64(k)
			msgs = append(msgs, event.Message{
				Event: event.Event{Thread: i, Kind: event.Write, Var: name, Value: int64(k % 2), Relevant: true},
				Clock: clock.New(comps),
			})
		}
	}
	return msgs, logic.StateFromMap(im)
}

// runOnlineMode drives the online analyzer over msgs in delivery order
// and returns its final result.
func runOnlineMode(t *testing.T, prog *monitor.Program, initial logic.State, threads int, msgs []event.Message) Result {
	t.Helper()
	o, err := NewOnline(prog, initial, threads, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range msgs {
		if err := o.Feed(m); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < threads; i++ {
		if err := o.FinishThread(i); err != nil {
			t.Fatal(err)
		}
	}
	res, err := o.Close()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCounterTotalsIdenticalAcrossModes: both explorer modes (offline
// and online) must flush identical counter totals for the same trace —
// cuts, pairs, computed transitions, edges, dedup hits, levels and
// violating pairs are properties of the computation, not of the
// delivery order — and report the same violations and statistics.
// Violations are identified by their cut: on the pulse fixture two
// monitor states violate at every cut where both flags are up, and
// each such cut is still reported once. Deliberately not parallel: it
// reads deltas of the process-wide counters, and Go runs non-parallel
// tests exclusively.
func TestCounterTotalsIdenticalAcrossModes(t *testing.T) {
	type fixture struct {
		name    string
		msgs    []event.Message
		initial logic.State
		threads int
		prog    *monitor.Program
		viols   int // expected violation count, -1 = unchecked
	}
	gm, gi := gridMessages(3, 3)
	pm, pi := pulseMessages(2, 48)
	crossingMsgs := []event.Message{
		msg(0, "x", 0, 1, 0),
		msg(1, "z", 1, 1, 1),
		msg(0, "y", 1, 2, 0),
		msg(1, "x", 1, 1, 2),
	}
	fixtures := []fixture{
		{"grid3x3", gm, gi, 3, monitor.MustCompile(logic.MustParseFormula("g0 < 3")), -1},
		{"crossing", crossingMsgs, logic.StateFromMap(map[string]int64{"x": -1, "y": 0, "z": 0}), 2, crossingProp, -1},
		{"pulse2x48", pm, pi, 2, monitor.MustCompile(logic.MustParseFormula(`!(v0 = 1 /\ v1 = 1) \/ [v0 = 1, v1 = 1)`)), 48 * 48},
	}

	for _, fx := range fixtures {
		comp, err := lattice.NewComputation(fx.initial, fx.threads, fx.msgs)
		if err != nil {
			t.Fatal(err)
		}

		var baseline *counterTotals
		var baselineRes Result
		runMode := func(mode string, f func() Result) {
			before := snapshotTotals()
			res := f()
			delta := snapshotTotals().sub(before)

			// Internal consistency against the result's own Stats.
			if delta.cuts != uint64(res.Stats.Cuts) || delta.pairs != uint64(res.Stats.Pairs) || delta.levels != uint64(res.Stats.Levels) {
				t.Errorf("%s/%s: counter deltas %+v disagree with Stats %+v", fx.name, mode, delta, res.Stats)
			}
			// A pair takes a computed transition or reuses one.
			if delta.transitions == 0 || delta.transitions > delta.pairs {
				t.Errorf("%s/%s: %d transitions computed for %d pairs", fx.name, mode, delta.transitions, delta.pairs)
			}
			// Every edge either built a new cut or merged into one.
			if delta.dedup != delta.edges-(delta.cuts-1) {
				t.Errorf("%s/%s: dedup %d != edges %d - new cuts %d", fx.name, mode, delta.dedup, delta.edges, delta.cuts-1)
			}
			if fx.viols >= 0 && len(res.Violations) != fx.viols {
				t.Errorf("%s/%s: %d violations, want one per violating cut (%d)", fx.name, mode, len(res.Violations), fx.viols)
			}
			if baseline == nil {
				baseline = &delta
				baselineRes = res
				return
			}
			if delta != *baseline {
				t.Errorf("%s/%s: counter totals %+v differ from first mode's %+v", fx.name, mode, delta, *baseline)
			}
			if !reflect.DeepEqual(res.Stats, baselineRes.Stats) {
				t.Errorf("%s/%s: stats %+v differ from first mode's %+v", fx.name, mode, res.Stats, baselineRes.Stats)
			}
			if renderResult(res) != renderResult(baselineRes) {
				t.Errorf("%s/%s: %d violations differ from first mode's %d", fx.name, mode, len(res.Violations), len(baselineRes.Violations))
			}
		}

		runMode("offline", func() Result {
			res, err := Analyze(fx.prog, comp, Options{})
			if err != nil {
				t.Fatal(err)
			}
			return res
		})
		runMode("online", func() Result {
			return runOnlineMode(t, fx.prog, fx.initial, fx.threads, fx.msgs)
		})

		if fx.name == "crossing" && baseline.viols == 0 {
			t.Errorf("crossing fixture flushed no violating pairs")
		}
	}
}

// TestLevelTransitionMemo pins the level step's work on the 2 × 48
// pulse lattice (9,409 cuts on 193 levels): every stepped pair is
// counted, but a monitor transition is computed once per level and
// distinct (monitor key, atom valuation), and once at the root. Under
// the interval spec some cuts carry two monitor states. Not parallel:
// it reads deltas of the process-wide counters.
func TestLevelTransitionMemo(t *testing.T) {
	msgs, initial := pulseMessages(2, 48)
	comp, err := lattice.NewComputation(initial, 2, msgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		spec               string
		pairs, transitions int
	}{
		// Both flags' atoms take at most two valuations per level
		// (both flags' parities agree on even levels, differ on odd
		// ones), one on the last level: 191·2 + 1 transitions, plus
		// the root's.
		{`!(v0 = 1 /\ v1 = 1)`, 14017, 384},
		{`!(v0 = 1 /\ v1 = 1) \/ [v0 = 1, v1 = 1)`, 18529, 765},
	} {
		prog := monitor.MustCompile(logic.MustParseFormula(tc.spec))
		for _, mode := range []string{"offline", "online"} {
			before := mTransitions.Value()
			var res Result
			if mode == "offline" {
				if res, err = Analyze(prog, comp, Options{}); err != nil {
					t.Fatal(err)
				}
			} else {
				res = runOnlineMode(t, prog, initial, 2, msgs)
			}
			transitions := int(mTransitions.Value() - before)
			if res.Stats.Cuts != 9409 || res.Stats.Levels != 193 {
				t.Fatalf("%s/%s: pulse geometry drifted: %d cuts on %d levels", tc.spec, mode, res.Stats.Cuts, res.Stats.Levels)
			}
			if res.Stats.Pairs != tc.pairs || transitions != tc.transitions {
				t.Errorf("%s/%s: %d pairs and %d transitions, want %d and %d",
					tc.spec, mode, res.Stats.Pairs, transitions, tc.pairs, tc.transitions)
			}
		}
	}
}

// TestModeCountersLabelled: each explorer mode increments its own
// mode series of gompax_predict_analyses_total.
func TestModeCountersLabelled(t *testing.T) {
	comp, _ := gridComputation(t, 2, 2)
	prog := monitor.MustCompile(logic.MustParseFormula("g0 >= 0"))

	series := map[string]*telemetry.Counter{}
	for _, mode := range []string{"offline", "online"} {
		series[mode] = mAnalyses.With(mode)
	}
	before := map[string]uint64{}
	for k, c := range series {
		before[k] = c.Value()
	}

	if _, err := Analyze(prog, comp, Options{}); err != nil {
		t.Fatal(err)
	}
	msgs, ginit := gridMessages(2, 2)
	runOnlineMode(t, prog, ginit, 2, msgs)

	for k, c := range series {
		if got := c.Value() - before[k]; got != 1 {
			t.Errorf("analyses counter %s advanced by %d, want 1", k, got)
		}
	}
}

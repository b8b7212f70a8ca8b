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
// pure function of (computation, formula) — identical however the
// exploration is scheduled.
type counterTotals struct {
	cuts, pairs, edges, dedup, levels, viols uint64
}

func snapshotTotals() counterTotals {
	return counterTotals{
		cuts:   mCuts.Value(),
		pairs:  mPairs.Value(),
		edges:  mEdges.Value(),
		dedup:  mDedupHits.Value(),
		levels: mLevels.Value(),
		viols:  mViolations.Value(),
	}
}

func (a counterTotals) sub(b counterTotals) counterTotals {
	return counterTotals{
		cuts:   a.cuts - b.cuts,
		pairs:  a.pairs - b.pairs,
		edges:  a.edges - b.edges,
		dedup:  a.dedup - b.dedup,
		levels: a.levels - b.levels,
		viols:  a.viols - b.viols,
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
				Clock: clock.Global().Intern(comps),
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
				Clock: clock.Global().Intern(comps),
			})
		}
	}
	return msgs, logic.StateFromMap(im)
}

// runOnlineMode drives the online analyzer over msgs in delivery order
// and returns its final result.
func runOnlineMode(t *testing.T, prog *monitor.Program, initial logic.State, threads int, msgs []event.Message, workers int) Result {
	t.Helper()
	o, err := NewOnline(prog, initial, threads, Options{Workers: workers})
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

// TestCounterTotalsIdenticalAcrossModes: all four explorer modes
// (offline/online × sequential/parallel) must flush identical counter
// totals for the same trace — cuts, pairs, edges, dedup hits, levels
// and violating pairs are properties of the computation, not of the
// schedule — and report the same violations and statistics. Violations
// are identified by their cut: on the pulse fixture two monitor states
// violate at every cut where both flags are up, and each such cut is
// still reported once. Deliberately not parallel: it reads deltas of
// the process-wide counters, and Go runs non-parallel tests
// exclusively.
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
			// Every edge either interned a new cut or merged into one.
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

		runMode("offline/sequential", func() Result {
			res, err := Analyze(fx.prog, comp, Options{})
			if err != nil {
				t.Fatal(err)
			}
			return res
		})
		runMode("offline/parallel", func() Result {
			res, err := Analyze(fx.prog, comp, Options{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			return res
		})
		runMode("online/sequential", func() Result {
			return runOnlineMode(t, fx.prog, fx.initial, fx.threads, fx.msgs, 0)
		})
		runMode("online/parallel", func() Result {
			return runOnlineMode(t, fx.prog, fx.initial, fx.threads, fx.msgs, 4)
		})

		if fx.name == "crossing" && baseline.viols == 0 {
			t.Errorf("crossing fixture flushed no violating pairs")
		}
	}
}

// TestModeCountersLabelled: each explorer mode increments its own
// (mode, explorer) series of gompax_predict_analyses_total.
func TestModeCountersLabelled(t *testing.T) {
	comp, _ := gridComputation(t, 2, 2)
	prog := monitor.MustCompile(logic.MustParseFormula("g0 >= 0"))

	series := map[string]*telemetry.Counter{}
	for _, mode := range []string{"offline", "online"} {
		for _, explorer := range []string{"sequential", "parallel"} {
			series[mode+"/"+explorer] = mAnalyses.With(mode, explorer)
		}
	}
	before := map[string]uint64{}
	for k, c := range series {
		before[k] = c.Value()
	}

	if _, err := Analyze(prog, comp, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(prog, comp, Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	msgs, ginit := gridMessages(2, 2)
	runOnlineMode(t, prog, ginit, 2, msgs, 0)
	runOnlineMode(t, prog, ginit, 2, msgs, 2)

	for k, c := range series {
		if got := c.Value() - before[k]; got != 1 {
			t.Errorf("analyses counter %s advanced by %d, want 1", k, got)
		}
	}
}

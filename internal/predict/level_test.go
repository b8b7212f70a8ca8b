package predict

import (
	"fmt"
	"gompax/internal/clock"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"gompax/internal/event"
	"gompax/internal/lattice"
	"gompax/internal/logic"
	"gompax/internal/monitor"
	"gompax/internal/mvc"
	"gompax/internal/trace"
)

// renderResult flattens a Result into a comparable string: every
// violation (cut, level, state, counterexample) in report order, then
// the statistics. Two analyses that are behaviorally identical render
// identically.
func renderResult(res Result) string {
	var b strings.Builder
	for _, v := range res.Violations {
		fmt.Fprintf(&b, "viol %s level=%d state=%s", v.Cut.Counts().Key(), v.Level, v.State.Key())
		if v.Run != nil {
			b.WriteString(" run=")
			for _, s := range v.Run.States {
				fmt.Fprintf(&b, "%s;", s.Key())
			}
			for _, m := range v.Run.Msgs {
				fmt.Fprintf(&b, "%d:%s=%d;", m.Event.Thread, m.Event.Var, m.Event.Value)
			}
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "stats %+v\n", res.Stats)
	return b.String()
}

// gridComputation builds a computation of `threads` fully independent
// threads with `perThread` writes each: a dense width^threads lattice
// whose levels merge many paths into each cut.
func gridComputation(t *testing.T, threads, perThread int) (*lattice.Computation, logic.State) {
	t.Helper()
	im := map[string]int64{}
	for i := 0; i < threads; i++ {
		im[fmt.Sprintf("g%d", i)] = 0
	}
	initial := logic.StateFromMap(im)
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
	comp, err := lattice.NewComputation(initial, threads, msgs)
	if err != nil {
		t.Fatal(err)
	}
	return comp, initial
}

// TestParallelMatchesSequentialOffline: every counterexample Analyze
// reports, on every fixture, is a genuine violating run.
func TestParallelMatchesSequentialOffline(t *testing.T) {
	t.Parallel()
	grid, _ := gridComputation(t, 3, 3)
	gridProp := monitor.MustCompile(logic.MustParseFormula("start(g0 = 3) -> [g1 = 2, g2 = 3)"))
	cases := []struct {
		name string
		prog *monitor.Program
		comp *lattice.Computation
	}{
		{"landing", landingProp, landingComputation(t)},
		{"crossing", crossingProp, crossingComputation(t)},
		{"grid", gridProp, grid},
	}
	for _, tc := range cases {
		for _, cex := range []bool{false, true} {
			res, err := Analyze(tc.prog, tc.comp, Options{Counterexamples: cex})
			if err != nil {
				t.Fatal(err)
			}
			// Counterexample runs must be genuine violating runs.
			if cex {
				for _, v := range res.Violations {
					idx, err := monitor.CheckTrace(tc.prog, v.Run.States)
					if err != nil {
						t.Fatal(err)
					}
					if idx < 0 {
						t.Errorf("%s: counterexample does not violate", tc.name)
					}
				}
			}
		}
	}
}

// TestParallelOnlineMatchesSequential: the online analyzer agrees with
// offline Analyze under scrambled delivery orders.
func TestParallelOnlineMatchesSequential(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(99))
	vars := []string{trace.VarName(0), trace.VarName(1)}
	checked := 0
	for iter := 0; iter < 120; iter++ {
		threads := 2 + rng.Intn(2)
		ops := trace.RandomOps(rng, trace.GenConfig{Threads: threads, Vars: 2, Length: 14})
		_, msgs := trace.Execute(ops, threads, mvc.WritesOf(vars...))
		if len(msgs) == 0 || len(msgs) > 9 {
			continue
		}
		initial := logic.StateFromMap(map[string]int64{vars[0]: 0, vars[1]: 0})
		comp, err := lattice.NewComputation(initial, threads, msgs)
		if err != nil {
			t.Fatal(err)
		}
		f := logic.GenFormula(rng, vars, 3)
		prog, err := monitor.Compile(f)
		if err != nil {
			t.Fatal(err)
		}
		offline, err := Analyze(prog, comp, Options{Counterexamples: true})
		if err != nil {
			t.Fatal(err)
		}
		want := renderResult(offline)

		shuffled := append([]event.Message(nil), msgs...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		o, err := NewOnline(prog, initial, threads, Options{Counterexamples: true})
		if err != nil {
			t.Fatal(err)
		}
		res := feedAll(t, o, shuffled, threads)
		if got := renderResult(res); got != want {
			t.Fatalf("iter %d (formula %q):\n--- offline ---\n%s--- online ---\n%s",
				iter, f, want, got)
		}
		checked++
	}
	if checked < 40 {
		t.Fatalf("only %d cases checked", checked)
	}
}

// TestParallelFirstOnly: FirstOnly reports the same single canonical
// violation, and stops at the same level, offline and online.
func TestParallelFirstOnly(t *testing.T) {
	t.Parallel()
	pulses, pulseInit := pulseMessages(2, 3)
	cases := []struct {
		name    string
		prog    *monitor.Program
		initial logic.State
		msgs    []event.Message // in delivery order for the online runs
	}{
		{"landing", landingProp, logic.StateFromMap(map[string]int64{"landing": 0, "approved": 0, "radio": 1}), []event.Message{
			msg(1, "radio", 0, 0, 1),
			msg(0, "landing", 1, 2, 0),
			msg(0, "approved", 1, 1, 0),
		}},
		// Nine violating cuts over four levels: FirstOnly must stop at
		// level 2 with the first of them.
		{"pulse2x3", monitor.MustCompile(logic.MustParseFormula(`!(v0 = 1 /\ v1 = 1)`)), pulseInit, pulses},
	}
	for _, tc := range cases {
		comp, err := lattice.NewComputation(tc.initial, 2, tc.msgs)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := Analyze(tc.prog, comp, Options{FirstOnly: true, Counterexamples: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(seq.Violations) != 1 {
			t.Fatalf("%s: sequential FirstOnly reported %d violations", tc.name, len(seq.Violations))
		}
		want := renderResult(seq)
		o, err := NewOnline(tc.prog, tc.initial, 2, Options{FirstOnly: true, Counterexamples: true})
		if err != nil {
			t.Fatal(err)
		}
		if got := renderResult(feedAll(t, o, tc.msgs, 2)); got != want {
			t.Errorf("%s: online FirstOnly differs:\n%s\nvs\n%s", tc.name, got, want)
		}
	}
}

// TestLevelWidthsMatchLattice: Stats.LevelWidths equals the
// materialized lattice's per-level node counts.
func TestLevelWidthsMatchLattice(t *testing.T) {
	t.Parallel()
	comp, _ := gridComputation(t, 3, 2)
	prog := monitor.MustCompile(logic.MustParseFormula("g0 >= 0"))
	l, err := lattice.Build(comp, 0)
	if err != nil {
		t.Fatal(err)
	}
	var want []int
	for k := 0; k <= comp.Total(); k++ {
		want = append(want, len(l.Level(k)))
	}
	res, err := Analyze(prog, comp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Stats.LevelWidths, want) {
		t.Errorf("LevelWidths %v, lattice %v", res.Stats.LevelWidths, want)
	}
	if res.Stats.Cuts != l.NumNodes() {
		t.Errorf("Cuts %d, lattice nodes %d", res.Stats.Cuts, l.NumNodes())
	}
	if res.Stats.MaxWidth != l.Width() {
		t.Errorf("MaxWidth %d, lattice width %d", res.Stats.MaxWidth, l.Width())
	}
}

// TestLevelDigestCollisions: the level map confirms every digest hit by
// value, so an analysis in which every cut digest collides explores the
// same lattice and reports byte-identically, counterexamples included.
// Not parallel: it swaps the level map's digest function.
func TestLevelDigestCollisions(t *testing.T) {
	pulses, pulseInit := pulseMessages(3, 2)
	comp, err := lattice.NewComputation(pulseInit, 3, pulses)
	if err != nil {
		t.Fatal(err)
	}
	prog := monitor.MustCompile(logic.MustParseFormula(`!(v0 = 1 /\ v1 = 1) \/ [v0 = 1, v2 = 1)`))
	run := func() (string, string) {
		off, err := Analyze(prog, comp, Options{Counterexamples: true})
		if err != nil {
			t.Fatal(err)
		}
		o, err := NewOnline(prog, pulseInit, 3, Options{Counterexamples: true})
		if err != nil {
			t.Fatal(err)
		}
		return renderResult(off), renderResult(feedAll(t, o, pulses, 3))
	}
	wantOff, wantOn := run()
	if !strings.Contains(wantOff, "viol ") {
		t.Fatalf("fixture lost its violations:\n%s", wantOff)
	}
	defer func(d func(clock.Ref, int) uint64) { cutDigest = d }(cutDigest)
	cutDigest = func(clock.Ref, int) uint64 { return 42 }
	gotOff, gotOn := run()
	if gotOff != wantOff || gotOn != wantOn {
		t.Fatalf("colliding digests changed the report:\n--- offline ---\n%s--- with collisions ---\n%s--- online ---\n%s--- with collisions ---\n%s",
			wantOff, gotOff, wantOn, gotOn)
	}
}

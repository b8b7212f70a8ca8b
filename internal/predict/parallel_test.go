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
// that actually exercises the worker pool.
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

var workerCounts = []int{2, 3, 8, -1}

// TestParallelMatchesSequentialOffline: for every fixture and worker
// count, the parallel Analyze reports byte-identical violations,
// counterexamples and statistics to the sequential one.
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
			seq, err := Analyze(tc.prog, tc.comp, Options{Counterexamples: cex})
			if err != nil {
				t.Fatal(err)
			}
			want := renderResult(seq)
			for _, w := range workerCounts {
				par, err := Analyze(tc.prog, tc.comp, Options{Counterexamples: cex, Workers: w})
				if err != nil {
					t.Fatalf("%s workers=%d: %v", tc.name, w, err)
				}
				if got := renderResult(par); got != want {
					t.Errorf("%s workers=%d cex=%v mismatch:\n--- sequential ---\n%s--- parallel ---\n%s",
						tc.name, w, cex, want, got)
				}
			}
			// Counterexample runs must be genuine violating runs.
			if cex {
				for _, v := range seq.Violations {
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

// TestParallelDeterminism: the parallel explorer is byte-identical run
// to run, whatever the goroutine schedule did.
func TestParallelDeterminism(t *testing.T) {
	t.Parallel()
	comp, _ := gridComputation(t, 3, 3)
	prog := monitor.MustCompile(logic.MustParseFormula("start(g0 = 3) -> [g1 = 2, g2 = 3)"))
	var first string
	for i := 0; i < 5; i++ {
		res, err := Analyze(prog, comp, Options{Counterexamples: true, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		got := renderResult(res)
		if i == 0 {
			first = got
			if !res.Violated() {
				t.Fatal("fixture no longer violates; pick a violating formula")
			}
			continue
		}
		if got != first {
			t.Fatalf("run %d differs:\n--- first ---\n%s--- now ---\n%s", i, first, got)
		}
	}
}

// TestParallelOnlineMatchesSequential: the online analyzer with a
// worker pool agrees with the sequential online analyzer and with
// offline Analyze, under scrambled delivery orders.
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
		for _, w := range []int{0, 3} {
			o, err := NewOnline(prog, initial, threads, Options{Counterexamples: true, Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			res := feedAll(t, o, shuffled, threads)
			if got := renderResult(res); got != want {
				t.Fatalf("iter %d (formula %q) workers=%d:\n--- offline ---\n%s--- online ---\n%s",
					iter, f, w, want, got)
			}
		}
		checked++
	}
	if checked < 40 {
		t.Fatalf("only %d cases checked", checked)
	}
}

// TestParallelFirstOnly: FirstOnly reports the same single canonical
// violation, and stops at the same level, in every explorer mode —
// offline and online, inline and on a worker pool.
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
		for _, w := range append([]int{0}, workerCounts...) {
			par, err := Analyze(tc.prog, comp, Options{FirstOnly: true, Counterexamples: true, Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			if got := renderResult(par); got != want {
				t.Errorf("%s: offline workers=%d FirstOnly differs:\n%s\nvs\n%s", tc.name, w, got, want)
			}
			o, err := NewOnline(tc.prog, tc.initial, 2, Options{FirstOnly: true, Counterexamples: true, Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			if got := renderResult(feedAll(t, o, tc.msgs, 2)); got != want {
				t.Errorf("%s: online workers=%d FirstOnly differs:\n%s\nvs\n%s", tc.name, w, got, want)
			}
		}
	}
}

// TestParallelMaxCuts: the cut bound aborts the parallel explorer too.
// The bound is checked at the level barrier, so the error fires at the
// same level as in the sequential explorer.
func TestParallelMaxCuts(t *testing.T) {
	t.Parallel()
	comp := landingComputation(t)
	for _, w := range workerCounts {
		if _, err := Analyze(landingProp, comp, Options{MaxCuts: 2, Workers: w}); err == nil {
			t.Errorf("workers=%d: expected MaxCuts error", w)
		}
	}
}

// TestLevelWidthsMatchLattice: Stats.LevelWidths equals the
// materialized lattice's per-level node counts, in every explorer.
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
	for _, w := range []int{0, 4} {
		res, err := Analyze(prog, comp, Options{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Stats.LevelWidths, want) {
			t.Errorf("workers=%d LevelWidths %v, lattice %v", w, res.Stats.LevelWidths, want)
		}
		if res.Stats.Cuts != l.NumNodes() {
			t.Errorf("workers=%d Cuts %d, lattice nodes %d", w, res.Stats.Cuts, l.NumNodes())
		}
		if res.Stats.MaxWidth != l.Width() {
			t.Errorf("workers=%d MaxWidth %d, lattice width %d", w, res.Stats.MaxWidth, l.Width())
		}
	}
}

// TestNormalizeWorkers pins the knob semantics Options documents.
func TestNormalizeWorkers(t *testing.T) {
	t.Parallel()
	if got := normalizeWorkers(0); got != 0 {
		t.Errorf("normalizeWorkers(0) = %d", got)
	}
	if got := normalizeWorkers(1); got != 1 {
		t.Errorf("normalizeWorkers(1) = %d", got)
	}
	if got := normalizeWorkers(7); got != 7 {
		t.Errorf("normalizeWorkers(7) = %d", got)
	}
	if got := normalizeWorkers(-1); got < 1 {
		t.Errorf("normalizeWorkers(-1) = %d", got)
	}
}

package predict

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"gompax/internal/clock"
	"gompax/internal/event"
	"gompax/internal/lattice"
	"gompax/internal/logic"
	"gompax/internal/monitor"
	"gompax/internal/mvc"
	"gompax/internal/trace"
)

func msg(thread int, varName string, value int64, comps ...uint64) event.Message {
	return event.Message{
		Event: event.Event{Thread: thread, Kind: event.Write, Var: varName, Value: value, Relevant: true},
		Clock: clock.Of(comps...),
	}
}

func landingComputation(t *testing.T) *lattice.Computation {
	t.Helper()
	initial := logic.StateFromMap(map[string]int64{"landing": 0, "approved": 0, "radio": 1})
	c, err := lattice.NewComputation(initial, 2, []event.Message{
		msg(0, "approved", 1, 1, 0),
		msg(0, "landing", 1, 2, 0),
		msg(1, "radio", 0, 0, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func crossingComputation(t *testing.T) *lattice.Computation {
	t.Helper()
	initial := logic.StateFromMap(map[string]int64{"x": -1, "y": 0, "z": 0})
	c, err := lattice.NewComputation(initial, 2, []event.Message{
		msg(0, "x", 0, 1, 0),
		msg(1, "z", 1, 1, 1),
		msg(0, "y", 1, 2, 0),
		msg(1, "x", 1, 1, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

var (
	landingProp  = monitor.MustCompile(logic.MustParseFormula("start(landing = 1) -> [approved = 1, radio = 0)"))
	crossingProp = monitor.MustCompile(logic.MustParseFormula("(x > 0) -> [y = 0, y > z)"))
)

// TestLandingLattice reproduces the paper's Example 1 end to end: from
// the single successful execution, the analyzer predicts the safety
// violation; exhaustive run enumeration finds exactly 3 runs of which
// 2 violate, over a 6-state lattice (Fig. 5).
func TestLandingLattice(t *testing.T) {
	t.Parallel()
	comp := landingComputation(t)

	rep, err := EnumerateRuns(landingProp, comp, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != 3 || rep.Violating != 2 {
		t.Errorf("runs = %d violating = %d, want 3 and 2", rep.Total, rep.Violating)
	}
	if rep.Nodes != 6 {
		t.Errorf("lattice nodes = %d, want 6", rep.Nodes)
	}

	res, err := Analyze(landingProp, comp, Options{Counterexamples: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Violated() {
		t.Fatalf("predictive analyzer missed the violation")
	}
	// All violations occur when landing:=1 fires after radio:=0.
	for _, v := range res.Violations {
		if got := v.Cut.State().Tuple([]string{"landing", "approved", "radio"}); got != "<1,1,0>" {
			t.Errorf("violation state = %s, want <1,1,0>", got)
		}
		if v.Run == nil {
			t.Fatalf("missing counterexample run")
		}
		// Counterexample must itself violate the property per the
		// single-trace checker.
		idx, err := monitor.CheckTrace(landingProp, v.Run.States)
		if err != nil {
			t.Fatal(err)
		}
		if idx < 0 {
			t.Errorf("counterexample does not violate the property")
		}
		// And its last event must be the landing write.
		last := v.Run.Msgs[len(v.Run.Msgs)-1]
		if last.Event.Var != "landing" {
			t.Errorf("counterexample ends with %s, want landing", last.Event.Var)
		}
	}
}

// TestCrossingLattice reproduces Example 2 (Fig. 6): 3 runs, exactly 1
// violating, predicted from the successful observed execution.
func TestCrossingLattice(t *testing.T) {
	t.Parallel()
	comp := crossingComputation(t)

	rep, err := EnumerateRuns(crossingProp, comp, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != 3 || rep.Violating != 1 {
		t.Errorf("runs = %d violating = %d, want 3 and 1", rep.Total, rep.Violating)
	}
	if rep.Nodes != 7 {
		t.Errorf("lattice nodes = %d, want 7", rep.Nodes)
	}
	if len(rep.Counterexamples) != 1 {
		t.Fatalf("want 1 counterexample")
	}
	// The violating run is the rightmost path: x=0, y=1, z=1, x=1.
	var vars []string
	for _, m := range rep.Counterexamples[0].Msgs {
		vars = append(vars, m.Event.Var)
	}
	want := []string{"x", "y", "z", "x"}
	for i := range want {
		if vars[i] != want[i] {
			t.Fatalf("counterexample writes %v, want %v", vars, want)
		}
	}

	res, err := Analyze(crossingProp, comp, Options{Counterexamples: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) == 0 {
		t.Fatalf("predictive analyzer missed the violation")
	}
	v := res.Violations[0]
	if got := v.Cut.State().Tuple([]string{"x", "y", "z"}); got != "<1,1,1>" {
		t.Errorf("violation state %s, want <1,1,1>", got)
	}
	if v.Cut.Level() != 4 {
		t.Errorf("violation level %d, want 4", v.Cut.Level())
	}
}

// TestObservedOnlyBaselineMisses confirms the paper's motivation: the
// JPAX-style single-trace checker does NOT detect either bug on the
// observed (successful) runs.
func TestObservedOnlyBaselineMisses(t *testing.T) {
	t.Parallel()
	landingObserved := []logic.State{
		logic.StateFromMap(map[string]int64{"landing": 0, "approved": 0, "radio": 1}),
		logic.StateFromMap(map[string]int64{"landing": 0, "approved": 1, "radio": 1}),
		logic.StateFromMap(map[string]int64{"landing": 1, "approved": 1, "radio": 1}),
		logic.StateFromMap(map[string]int64{"landing": 1, "approved": 1, "radio": 0}),
	}
	if idx, _ := monitor.CheckTrace(landingProp, landingObserved); idx != -1 {
		t.Errorf("baseline flagged the successful landing run at %d", idx)
	}
	crossingObserved := []logic.State{
		logic.StateFromMap(map[string]int64{"x": -1, "y": 0, "z": 0}),
		logic.StateFromMap(map[string]int64{"x": 0, "y": 0, "z": 0}),
		logic.StateFromMap(map[string]int64{"x": 0, "y": 0, "z": 1}),
		logic.StateFromMap(map[string]int64{"x": 1, "y": 0, "z": 1}),
		logic.StateFromMap(map[string]int64{"x": 1, "y": 1, "z": 1}),
	}
	if idx, _ := monitor.CheckTrace(crossingProp, crossingObserved); idx != -1 {
		t.Errorf("baseline flagged the successful crossing run at %d", idx)
	}
}

// TestAnalyzeAgreesWithEnumeration: on random computations, the
// level-by-level analyzer predicts a violation iff some enumerated run
// violates the property.
func TestAnalyzeAgreesWithEnumeration(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(99))
	vars := []string{trace.VarName(0), trace.VarName(1)}
	checked := 0
	for iter := 0; iter < 120; iter++ {
		threads := 2 + rng.Intn(2)
		ops := trace.RandomOps(rng, trace.GenConfig{Threads: threads, Vars: 2, Length: 12})
		_, msgs := trace.Execute(ops, threads, mvc.WritesOf(vars...))
		if len(msgs) == 0 || len(msgs) > 8 {
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
		rep, err := EnumerateRuns(prog, comp, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Analyze(prog, comp, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Violated() != (rep.Violating > 0) {
			t.Fatalf("iter %d: formula %q: analyzer=%v enumeration=%d/%d",
				iter, f, res.Violated(), rep.Violating, rep.Total)
		}
		checked++
	}
	if checked < 40 {
		t.Fatalf("only %d cases exercised; generator drifted", checked)
	}
}

// TestLevelMemoryBound: the analyzer's reported width stays at the
// lattice's widest level even when the lattice has exponentially many
// runs, and what a finished analysis keeps alive does not grow with
// the cut count: the two-levels-at-a-time claim (§4). It is not
// parallel, so its heap readings see its own analyses alone.
func TestLevelMemoryBound(t *testing.T) {
	// k independent writer threads: lattice is the k-dimensional cube
	// {0,1}^k with k! runs, widest level C(k, k/2).
	const k = 8
	m := map[string]int64{}
	var msgs []event.Message
	for i := 0; i < k; i++ {
		name := trace.VarName(i)
		m[name] = 0
		clock := make([]uint64, k)
		clock[i] = 1
		msgs = append(msgs, msg(i, name, 1, clock...))
	}
	comp, err := lattice.NewComputation(logic.StateFromMap(m), k, msgs)
	if err != nil {
		t.Fatal(err)
	}
	prog := monitor.MustCompile(logic.MustParseFormula("[*] x0 >= 0"))
	res, err := Analyze(prog, comp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violated() {
		t.Fatalf("property trivially holds; got violations")
	}
	if res.Stats.Cuts != 1<<k {
		t.Errorf("cuts = %d, want %d", res.Stats.Cuts, 1<<k)
	}
	if res.Stats.MaxWidth != 70 { // C(8,4)
		t.Errorf("max width = %d, want 70", res.Stats.MaxWidth)
	}
	if res.Stats.Levels != k+1 {
		t.Errorf("levels = %d, want %d", res.Stats.Levels, k+1)
	}

	// A 4 × 20-write grid: 194,481 cuts, widest level 6,181. The
	// finished analysis (its result, and the session object online)
	// must retain well under what one wide level costs.
	const threads, writes, maxRetained = 4, 20, 1 << 20
	gridProp := monitor.MustCompile(logic.MustParseFormula("g0 >= 0"))
	checkGrid := func(t *testing.T, res Result, retained int64) {
		t.Helper()
		if res.Stats.Cuts != 194481 || res.Stats.MaxWidth != 6181 || res.Violated() {
			t.Fatalf("grid geometry drifted: %d cuts, width %d, %d violations",
				res.Stats.Cuts, res.Stats.MaxWidth, len(res.Violations))
		}
		t.Logf("retained %.2f MB after %d cuts", float64(retained)/(1<<20), res.Stats.Cuts)
		if retained > maxRetained {
			t.Errorf("finished analysis retains %.1f MB of live heap, want < %.1f MB",
				float64(retained)/(1<<20), float64(maxRetained)/(1<<20))
		}
	}
	t.Run("offline", func(t *testing.T) {
		grid, _ := gridComputation(t, threads, writes)
		before := liveHeap()
		res, err := Analyze(gridProp, grid, Options{})
		if err != nil {
			t.Fatal(err)
		}
		retained := liveHeap() - before
		runtime.KeepAlive(res)
		checkGrid(t, res, retained)
	})
	t.Run("online", func(t *testing.T) {
		grid, gridInit := gridComputation(t, threads, writes)
		var msgs []event.Message
		for i := 0; i < threads; i++ {
			for k := 1; k <= writes; k++ {
				msgs = append(msgs, grid.Message(i, k))
			}
		}
		before := liveHeap()
		o, err := NewOnline(gridProp, gridInit, threads, Options{})
		if err != nil {
			t.Fatal(err)
		}
		res := feedAll(t, o, msgs, threads)
		retained := liveHeap() - before
		runtime.KeepAlive(o)
		checkGrid(t, res, retained)
	})
}

// liveHeap returns the bytes of live heap objects after a full
// collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

func TestAnalyzeMaxCuts(t *testing.T) {
	t.Parallel()
	comp := landingComputation(t)
	if _, err := Analyze(landingProp, comp, Options{MaxCuts: 2}); err == nil {
		t.Fatalf("expected MaxCuts error")
	}
}

func TestAnalyzeViolationAtInitialState(t *testing.T) {
	t.Parallel()
	initial := logic.StateFromMap(map[string]int64{"x": 5})
	comp, err := lattice.NewComputation(initial, 1, []event.Message{msg(0, "x", 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	prog := monitor.MustCompile(logic.MustParseFormula("x < 5"))
	res, err := Analyze(prog, comp, Options{Counterexamples: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 1 || res.Violations[0].Cut.Level() != 0 {
		t.Fatalf("want a single violation at level 0, got %v", res.Violations)
	}
	if res.Violations[0].Run == nil || len(res.Violations[0].Run.States) != 1 {
		t.Fatalf("initial-state counterexample malformed")
	}
}

func TestAnalyzeErrorOnUnboundVariable(t *testing.T) {
	t.Parallel()
	initial := logic.StateFromMap(map[string]int64{"x": 0})
	comp, err := lattice.NewComputation(initial, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	prog := monitor.MustCompile(logic.MustParseFormula("nope = 1"))
	if _, err := Analyze(prog, comp, Options{}); err == nil {
		t.Fatalf("expected unbound-variable error")
	}
	if _, err := EnumerateRuns(prog, comp, 0, 0); err == nil {
		t.Fatalf("expected unbound-variable error in enumeration")
	}
}

// analyzeBoth runs one single-threaded computation through Analyze
// and through Online, returning each result and the first error.
func analyzeBoth(t *testing.T, prog *monitor.Program, initial logic.State, msgs []event.Message) (off, on Result, offErr, onErr error) {
	t.Helper()
	comp, err := lattice.NewComputation(initial, 1, msgs)
	if err != nil {
		t.Fatal(err)
	}
	off, offErr = Analyze(prog, comp, Options{Counterexamples: true})
	o, err := NewOnline(prog, initial, 1, Options{Counterexamples: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range msgs {
		if onErr = o.Feed(m); onErr != nil {
			return off, o.Partial(), offErr, onErr
		}
	}
	if onErr = o.FinishThread(0); onErr != nil {
		return off, o.Partial(), offErr, onErr
	}
	on, onErr = o.Close()
	return off, on, offErr, onErr
}

// TestAnalyzeErrorAtNonRootCut: an atom that fails to evaluate at a cut
// below the root fails both analyzers, as it does at the root
// (TestAnalyzeErrorOnUnboundVariable).
func TestAnalyzeErrorAtNonRootCut(t *testing.T) {
	t.Parallel()
	prog := monitor.MustCompile(logic.MustParseFormula("10 / x > 0"))
	initial := logic.StateFromMap(map[string]int64{"x": 1})
	_, _, offErr, onErr := analyzeBoth(t, prog, initial, []event.Message{msg(0, "x", 0, 1)})
	for mode, err := range map[string]error{"offline": offErr, "online": onErr} {
		if err == nil || !strings.Contains(err.Error(), "division by zero") {
			t.Errorf("%s: want the division-by-zero error, got %v", mode, err)
		}
	}
}

// TestAtomsEvaluatedOnlyWhereStepped: a cut is evaluated only when a
// monitor state steps into it. Here the cut where x = 0 is reached only
// through a violating cut, whose monitor state is not propagated, so
// its failing atom is never evaluated and the analysis reports the
// violation.
func TestAtomsEvaluatedOnlyWhereStepped(t *testing.T) {
	t.Parallel()
	prog := monitor.MustCompile(logic.MustParseFormula("y = 0 /\\ 10 / x > 0"))
	initial := logic.StateFromMap(map[string]int64{"x": 1, "y": 0})
	off, on, offErr, onErr := analyzeBoth(t, prog, initial, []event.Message{msg(0, "y", 1, 1), msg(0, "x", 0, 2)})
	if offErr != nil || onErr != nil {
		t.Fatalf("offline error %v, online error %v", offErr, onErr)
	}
	for mode, res := range map[string]Result{"offline": off, "online": on} {
		if res.Stats.Cuts != 3 || len(res.Violations) != 1 || res.Violations[0].Cut.Level() != 1 {
			t.Errorf("%s: %d cuts and violations %v, want 3 cuts and one violation at level 1", mode, res.Stats.Cuts, res.Violations)
		}
	}
}

// TestAnalyzeSixtyFourAtoms: a formula with monitor.MaxAtoms atoms
// whose verdict hangs on the last one, the valuation word's top bit,
// is stepped correctly by the level step.
func TestAnalyzeSixtyFourAtoms(t *testing.T) {
	t.Parallel()
	parts := make([]string, 0, monitor.MaxAtoms)
	for i := 1; i < monitor.MaxAtoms; i++ {
		parts = append(parts, fmt.Sprintf("x > -%d", i))
	}
	prog := monitor.MustCompile(logic.MustParseFormula(strings.Join(append(parts, "x < 5"), " /\\ ")))
	if len(prog.Atoms()) != monitor.MaxAtoms {
		t.Fatalf("compiled %d atoms, want %d", len(prog.Atoms()), monitor.MaxAtoms)
	}
	initial := logic.StateFromMap(map[string]int64{"x": 0})
	off, on, offErr, onErr := analyzeBoth(t, prog, initial, []event.Message{msg(0, "x", 4, 1), msg(0, "x", 5, 2)})
	if offErr != nil || onErr != nil {
		t.Fatalf("offline error %v, online error %v", offErr, onErr)
	}
	for mode, res := range map[string]Result{"offline": off, "online": on} {
		if len(res.Violations) != 1 || res.Violations[0].Cut.Level() != 2 || res.Violations[0].Cut.State().Key() != "x=5" {
			t.Errorf("%s: violations %v, want one at level 2 where x = 5", mode, res.Violations)
		}
	}
}

func TestViolationString(t *testing.T) {
	t.Parallel()
	comp := landingComputation(t)
	res, err := Analyze(landingProp, comp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) == 0 || res.Violations[0].String() == "" {
		t.Fatalf("violation string empty")
	}
}

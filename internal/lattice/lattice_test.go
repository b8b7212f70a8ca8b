package lattice

import (
	"math/rand"
	"strings"
	"testing"

	"gompax/internal/clock"
	"gompax/internal/event"
	"gompax/internal/logic"
	"gompax/internal/mvc"
	"gompax/internal/testsupport/causality"
	"gompax/internal/trace"
)

func msg(thread int, varName string, value int64, comps ...uint64) event.Message {
	return event.Message{
		Event: event.Event{Thread: thread, Kind: event.Write, Var: varName, Value: value, Relevant: true},
		Clock: clock.Of(comps...),
	}
}

// fig5 builds the landing-controller computation of the paper's Fig. 5:
// initial state <landing,approved,radio> = <0,0,1> and three relevant
// writes: approved:=1 (T1), landing:=1 (T1), radio:=0 (T2), with
// radio:=0 concurrent to both T1 writes.
func fig5(t *testing.T) *Computation {
	t.Helper()
	initial := logic.StateFromMap(map[string]int64{"landing": 0, "approved": 0, "radio": 1})
	msgs := []event.Message{
		msg(0, "approved", 1, 1, 0),
		msg(0, "landing", 1, 2, 0),
		msg(1, "radio", 0, 0, 1),
	}
	c, err := NewComputation(initial, 2, msgs)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// fig6 builds the computation of the paper's Fig. 6 with its exact
// message clocks.
func fig6(t *testing.T) *Computation {
	t.Helper()
	initial := logic.StateFromMap(map[string]int64{"x": -1, "y": 0, "z": 0})
	msgs := []event.Message{
		msg(0, "x", 0, 1, 0), // e1
		msg(1, "z", 1, 1, 1), // e2
		msg(0, "y", 1, 2, 0), // e3
		msg(1, "x", 1, 1, 2), // e4
	}
	c, err := NewComputation(initial, 2, msgs)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFig5Lattice(t *testing.T) {
	t.Parallel()
	c := fig5(t)
	l, err := Build(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.NumNodes(); got != 6 {
		t.Errorf("Fig. 5 lattice has %d nodes, want 6", got)
	}
	if got := l.NumRuns(); got != 3 {
		t.Errorf("Fig. 5 lattice has %d runs, want 3", got)
	}
	if got := l.NumLevels(); got != 4 {
		t.Errorf("Fig. 5 lattice has %d levels, want 4", got)
	}
	order := []string{"landing", "approved", "radio"}
	want := []string{"<0,0,0>", "<0,0,1>", "<0,1,0>", "<0,1,1>", "<1,1,0>", "<1,1,1>"}
	got := l.StateTuples(order)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("state tuples = %v, want %v", got, want)
	}
	// Top state is <1,1,0> regardless of path.
	top := c.Top()
	if top.State().Tuple(order) != "<1,1,0>" {
		t.Errorf("top state = %s", top.State().Tuple(order))
	}
}

func TestFig6Lattice(t *testing.T) {
	t.Parallel()
	c := fig6(t)
	l, err := Build(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 6 shows 7 nodes: S00, S10, S11, S20, S12, S21, S22.
	if got := l.NumNodes(); got != 7 {
		t.Errorf("Fig. 6 lattice has %d nodes, want 7", got)
	}
	if got := l.NumRuns(); got != 3 {
		t.Errorf("Fig. 6 lattice has %d runs, want 3", got)
	}
	order := []string{"x", "y", "z"}
	want := []string{"<-1,0,0>", "<0,0,0>", "<0,0,1>", "<0,1,0>", "<0,1,1>", "<1,0,1>", "<1,1,1>"}
	got := l.StateTuples(order)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("state tuples = %v, want %v", got, want)
	}
	// The runs' state sequences match the three paths in the figure.
	var seqs []string
	l.Runs(0, func(r Run) bool {
		var parts []string
		for _, s := range r.States {
			parts = append(parts, s.Tuple(order))
		}
		seqs = append(seqs, strings.Join(parts, " "))
		return true
	})
	wantRuns := map[string]bool{
		"<-1,0,0> <0,0,0> <0,0,1> <1,0,1> <1,1,1>": true, // observed (leftmost)
		"<-1,0,0> <0,0,0> <0,0,1> <0,1,1> <1,1,1>": true, // middle
		"<-1,0,0> <0,0,0> <0,1,0> <0,1,1> <1,1,1>": true, // rightmost (violating)
	}
	if len(seqs) != 3 {
		t.Fatalf("got %d runs: %v", len(seqs), seqs)
	}
	for _, s := range seqs {
		if !wantRuns[s] {
			t.Errorf("unexpected run %q", s)
		}
	}
}

func TestReorderedDeliveryGivesSameLattice(t *testing.T) {
	t.Parallel()
	initial := logic.StateFromMap(map[string]int64{"x": -1, "y": 0, "z": 0})
	msgs := []event.Message{
		msg(1, "x", 1, 1, 2), // deliberately scrambled order
		msg(0, "y", 1, 2, 0),
		msg(0, "x", 0, 1, 0),
		msg(1, "z", 1, 1, 1),
	}
	c, err := NewComputation(initial, 2, msgs)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Build(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if l.NumNodes() != 7 || l.NumRuns() != 3 {
		t.Errorf("reordered delivery changed the lattice: %d nodes %d runs", l.NumNodes(), l.NumRuns())
	}
}

func TestNewComputationErrors(t *testing.T) {
	t.Parallel()
	initial := logic.StateFromMap(map[string]int64{"x": 0})
	// Zero own-component clock.
	if _, err := NewComputation(initial, 1, []event.Message{msg(0, "x", 1, 0)}); err == nil {
		t.Errorf("zero clock accepted")
	}
	// Duplicate position.
	if _, err := NewComputation(initial, 1, []event.Message{msg(0, "x", 1, 1), msg(0, "x", 2, 1)}); err == nil {
		t.Errorf("duplicate accepted")
	}
	// Gap: position 2 present, 1 missing.
	if _, err := NewComputation(initial, 1, []event.Message{msg(0, "x", 1, 2)}); err == nil {
		t.Errorf("gap accepted")
	}
}

func TestEmptyComputation(t *testing.T) {
	t.Parallel()
	initial := logic.StateFromMap(map[string]int64{"x": 5})
	c, err := NewComputation(initial, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Build(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if l.NumNodes() != 1 || l.NumRuns() != 1 {
		t.Errorf("empty computation: %d nodes %d runs", l.NumNodes(), l.NumRuns())
	}
	if v, _ := c.Top().State().Lookup("x"); v != 5 {
		t.Errorf("top state corrupted")
	}
}

func TestBuildMaxNodes(t *testing.T) {
	t.Parallel()
	// k mutually concurrent events → 2^k cuts.
	initial := logic.StateFromMap(map[string]int64{"a": 0, "b": 0, "c": 0, "d": 0})
	var msgs []event.Message
	for i, v := range []string{"a", "b", "c", "d"} {
		clock := make([]uint64, 4)
		clock[i] = 1
		msgs = append(msgs, msg(i, v, 1, clock...))
	}
	c, err := NewComputation(initial, 4, msgs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(c, 5); err == nil {
		t.Fatalf("expected ErrTooLarge")
	} else if _, ok := err.(ErrTooLarge); !ok {
		t.Fatalf("wrong error type %T", err)
	}
	l, err := Build(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if l.NumNodes() != 16 || l.NumRuns() != 24 {
		t.Errorf("4 concurrent events: %d nodes %d runs, want 16 and 24", l.NumNodes(), l.NumRuns())
	}
	if l.Width() != 6 {
		t.Errorf("width = %d, want 6 (middle binomial)", l.Width())
	}
}

// TestRunsMatchLinearExtensions cross-checks, on random executions,
// that the number of lattice runs equals the number of linear
// extensions of the relevant causality computed independently.
func TestRunsMatchLinearExtensions(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 40; iter++ {
		threads := 2 + rng.Intn(3)
		ops := trace.RandomOps(rng, trace.GenConfig{Threads: threads, Vars: 3, Length: 14})
		policy := mvc.WritesOf(trace.VarName(0), trace.VarName(1), trace.VarName(2))
		events, msgs := trace.Execute(ops, threads, policy)
		if len(msgs) > 9 {
			continue // keep factorial blowup in check
		}
		initial := logic.StateFromMap(map[string]int64{
			trace.VarName(0): 0, trace.VarName(1): 0, trace.VarName(2): 0,
		})
		c, err := NewComputation(initial, threads, msgs)
		if err != nil {
			t.Fatal(err)
		}
		l, err := Build(c, 0)
		if err != nil {
			t.Fatal(err)
		}
		gt := causality.Build(events).RelevantOrder()
		want := gt.CountLinearExtensions(0)
		if got := l.NumRuns(); got != want {
			t.Fatalf("iter %d: lattice has %d runs, linear extensions %d", iter, got, want)
		}
		// And Runs() enumerates exactly NumRuns() paths.
		n := l.Runs(0, func(Run) bool { return true })
		if n != want {
			t.Fatalf("iter %d: Runs enumerated %d, want %d", iter, n, want)
		}
	}
}

// TestCutConsistency checks that every reachable cut is downward
// closed: all causal predecessors of every included event are
// included.
func TestCutConsistency(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(33))
	for iter := 0; iter < 20; iter++ {
		threads := 2 + rng.Intn(3)
		ops := trace.RandomOps(rng, trace.GenConfig{Threads: threads, Vars: 2, Length: 16})
		policy := mvc.WritesOf(trace.VarName(0), trace.VarName(1))
		_, msgs := trace.Execute(ops, threads, policy)
		if len(msgs) > 10 {
			continue
		}
		initial := logic.StateFromMap(map[string]int64{trace.VarName(0): 0, trace.VarName(1): 0})
		c, err := NewComputation(initial, threads, msgs)
		if err != nil {
			t.Fatal(err)
		}
		l, err := Build(c, 0)
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < l.NumNodes(); id++ {
			cut := l.Node(id).Cut
			counts := cut.Clock()
			for i := 0; i < c.Threads(); i++ {
				for k := 1; k <= int(counts.Get(i)); k++ {
					v := c.Message(i, k).Clock
					for j := 0; j < c.Threads(); j++ {
						if v.Get(j) > counts.Get(j) {
							t.Fatalf("iter %d: cut %v includes %v but not its predecessors", iter, cut, c.Message(i, k))
						}
					}
				}
			}
		}
	}
}

// TestObservedRunIsALatticePath: the observed emission order is always
// one of the enumerated runs.
func TestObservedRunIsALatticePath(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(55))
	for iter := 0; iter < 30; iter++ {
		threads := 2 + rng.Intn(3)
		ops := trace.RandomOps(rng, trace.GenConfig{Threads: threads, Vars: 2, Length: 14})
		policy := mvc.WritesOf(trace.VarName(0), trace.VarName(1))
		_, msgs := trace.Execute(ops, threads, policy)
		if len(msgs) > 9 {
			continue
		}
		initial := logic.StateFromMap(map[string]int64{trace.VarName(0): 0, trace.VarName(1): 0})
		c, err := NewComputation(initial, threads, msgs)
		if err != nil {
			t.Fatal(err)
		}
		l, err := Build(c, 0)
		if err != nil {
			t.Fatal(err)
		}
		var observed []string
		for _, m := range msgs {
			observed = append(observed, m.Event.ID())
		}
		found := false
		l.Runs(0, func(r Run) bool {
			var ids []string
			for _, m := range r.Msgs {
				ids = append(ids, m.Event.ID())
			}
			if strings.Join(ids, " ") == strings.Join(observed, " ") {
				found = true
				return false
			}
			return true
		})
		if !found && len(msgs) > 0 {
			t.Fatalf("iter %d: observed run not among lattice paths", iter)
		}
	}
}

func TestDOTOutput(t *testing.T) {
	t.Parallel()
	l, err := Build(fig5(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	dot := l.DOT([]string{"landing", "approved", "radio"})
	for _, want := range []string{"digraph lattice", "<0,0,1>", "<1,1,0>", "approved=1", "->"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
	// nil order falls back to state vars.
	if !strings.Contains(l.DOT(nil), "digraph") {
		t.Errorf("DOT(nil) broken")
	}
}

func TestAdvancePanicsWhenInconsistent(t *testing.T) {
	t.Parallel()
	c := fig5(t)
	root := c.Root()
	// Thread 0's second event requires its first; jump straight to a
	// fabricated cut that skips it.
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	bad := Cut{counts: clock.Of(2, 0), state: c.Initial()}
	_ = bad
	// Advancing thread 1 from root twice: only one event exists.
	s := c.Advance(root, 1)
	c.Advance(s.Cut, 1)
}

func TestCutStringAndLevel(t *testing.T) {
	t.Parallel()
	c := fig6(t)
	root := c.Root()
	if root.String() != "S" {
		t.Errorf("root = %q", root)
	}
	s := c.Advance(root, 0)
	if s.Cut.String() != "S1" || s.Cut.Level() != 1 {
		t.Errorf("cut = %q level %d", s.Cut, s.Cut.Level())
	}
}

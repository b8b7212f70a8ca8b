package predict

import (
	"gompax/internal/clock"
	"math/rand"
	"testing"

	"gompax/internal/event"
	"gompax/internal/lattice"
	"gompax/internal/logic"
	"gompax/internal/monitor"
	"gompax/internal/mvc"
	"gompax/internal/trace"
)

// feedAll feeds messages in the given order, finishing all threads.
func feedAll(t *testing.T, o *Online, msgs []event.Message, threads int) Result {
	t.Helper()
	for _, m := range msgs {
		if err := o.Feed(m); err != nil {
			t.Fatalf("feed %v: %v", m, err)
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

func TestOnlineMatchesOfflineLanding(t *testing.T) {
	t.Parallel()
	comp := landingComputation(t)
	offline, err := Analyze(landingProp, comp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	msgs := []event.Message{
		msg(0, "approved", 1, 1, 0),
		msg(0, "landing", 1, 2, 0),
		msg(1, "radio", 0, 0, 1),
	}
	initial := logic.StateFromMap(map[string]int64{"landing": 0, "approved": 0, "radio": 1})

	// All 6 delivery orders.
	perms := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, p := range perms {
		o, err := NewOnline(landingProp, initial, 2, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ordered := []event.Message{msgs[p[0]], msgs[p[1]], msgs[p[2]]}
		res := feedAll(t, o, ordered, 2)
		if res.Violated() != offline.Violated() {
			t.Fatalf("perm %v: verdict %v, offline %v", p, res.Violated(), offline.Violated())
		}
		if res.Stats.Cuts != offline.Stats.Cuts {
			t.Fatalf("perm %v: cuts %d, offline %d", p, res.Stats.Cuts, offline.Stats.Cuts)
		}
		for _, v := range res.Violations {
			if got := v.Cut.State().Tuple([]string{"landing", "approved", "radio"}); got != "<1,1,0>" {
				t.Fatalf("perm %v: violation state %s", p, got)
			}
		}
	}
}

// TestOnlineMatchesOfflineRandom: over random computations and random
// delivery orders, online and offline agree on the verdict and on the
// number of cuts.
func TestOnlineMatchesOfflineRandom(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(17))
	vars := []string{trace.VarName(0), trace.VarName(1)}
	checked := 0
	for iter := 0; iter < 150; iter++ {
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
		offline, err := Analyze(prog, comp, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Scrambled delivery.
		shuffled := append([]event.Message(nil), msgs...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		o, err := NewOnline(prog, initial, threads, Options{})
		if err != nil {
			t.Fatal(err)
		}
		res := feedAll(t, o, shuffled, threads)
		if res.Violated() != offline.Violated() {
			t.Fatalf("iter %d (formula %q): online %v offline %v", iter, f, res.Violated(), offline.Violated())
		}
		if res.Stats.Cuts != offline.Stats.Cuts {
			t.Fatalf("iter %d: cuts online %d offline %d", iter, res.Stats.Cuts, offline.Stats.Cuts)
		}
		checked++
	}
	if checked < 50 {
		t.Fatalf("only %d cases checked", checked)
	}
}

func TestOnlineViolationAtInitialState(t *testing.T) {
	t.Parallel()
	prog := monitor.MustCompile(logic.MustParseFormula("x < 0"))
	o, err := NewOnline(prog, logic.StateFromMap(map[string]int64{"x": 1}), 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Violations()) != 1 || o.Violations()[0].Cut.Level() != 0 {
		t.Fatalf("initial violation not reported: %v", o.Violations())
	}
	res, err := o.Close()
	if err != nil || len(res.Violations) != 1 {
		t.Fatalf("close: %v %v", res, err)
	}
}

func TestOnlineIncrementalProgress(t *testing.T) {
	t.Parallel()
	// With thread-done notices, levels advance as messages arrive even
	// before Close.
	initial := logic.StateFromMap(map[string]int64{"a": 0, "b": 0})
	prog := monitor.MustCompile(logic.MustParseFormula("a >= 0"))
	o, err := NewOnline(prog, initial, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if o.Level() != 0 {
		t.Fatalf("level = %d", o.Level())
	}
	if err := o.Feed(msg(0, "a", 1, 1, 0)); err != nil {
		t.Fatal(err)
	}
	// Level cannot advance yet: thread 1 might still produce events.
	if o.Level() != 0 {
		t.Fatalf("level advanced without knowing thread 1's stream: %d", o.Level())
	}
	if err := o.FinishThread(1); err != nil {
		t.Fatal(err)
	}
	// Now thread 1 is final: level 1 is complete.
	if o.Level() != 1 {
		t.Fatalf("level = %d, want 1", o.Level())
	}
	if err := o.FinishThread(0); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestOnlineErrors(t *testing.T) {
	t.Parallel()
	initial := logic.StateFromMap(map[string]int64{"a": 0})
	prog := monitor.MustCompile(logic.MustParseFormula("a >= 0"))

	if _, err := NewOnline(prog, initial, 0, Options{}); err == nil {
		t.Errorf("zero threads accepted")
	}

	o, _ := NewOnline(prog, initial, 1, Options{})
	if err := o.Feed(msg(2, "a", 1, 0, 0, 1)); err == nil {
		t.Errorf("unknown thread accepted")
	}
	if err := o.Feed(event.Message{Event: event.Event{Thread: 0, Var: "a"}, Clock: clock.Ref{}}); err == nil {
		t.Errorf("zero clock accepted")
	}
	if err := o.Feed(msg(0, "a", 1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := o.Feed(msg(0, "a", 1, 1)); err == nil {
		t.Errorf("duplicate accepted")
	}
	if err := o.FinishThread(5); err == nil {
		t.Errorf("unknown finish accepted")
	}
	// Gap: position 3 buffered, 2 missing, then finish.
	if err := o.Feed(msg(0, "a", 2, 3)); err != nil {
		t.Fatal(err)
	}
	if err := o.FinishThread(0); err == nil {
		t.Errorf("finish with pending gap accepted")
	}
	if _, err := o.Close(); err == nil {
		t.Errorf("close with gap accepted")
	}
}

// TestOnlineStallIsReported: a delivered event whose clock names an
// event that never arrives can never be applied. With every thread
// done, strict Close reports the stall as an error and lossy Close as
// Degraded.Stalled, instead of a confident verdict that never looked
// at the event (here the x = 9 write that violates x < 5).
func TestOnlineStallIsReported(t *testing.T) {
	t.Parallel()
	initial := logic.StateFromMap(map[string]int64{"x": 0})
	prog := monitor.MustCompile(logic.MustParseFormula("x < 5"))
	msgs := []event.Message{
		msg(1, "x", 1, 0, 1),
		msg(0, "x", 9, 1, 3), // needs thread 1's third event, never sent
	}
	for _, lossy := range []bool{false, true} {
		o, err := NewOnline(prog, initial, 2, Options{Lossy: lossy})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range msgs {
			if err := o.Feed(m); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 2; i++ {
			if err := o.FinishThread(i); err != nil {
				t.Fatal(err)
			}
		}
		res, err := o.Close()
		if !lossy {
			if want := "predict: analysis stalled with 1 of 2 events applied"; err == nil || err.Error() != want {
				t.Errorf("strict Close: err = %v, want %q", err, want)
			}
			continue
		}
		if err != nil {
			t.Fatalf("lossy Close: %v", err)
		}
		if res.Degraded == nil || !res.Degraded.Stalled {
			t.Errorf("lossy Close: %s, want stalled", res.Degraded)
		}
	}
}

func TestOnlineFeedAfterClose(t *testing.T) {
	t.Parallel()
	initial := logic.StateFromMap(map[string]int64{"a": 0})
	prog := monitor.MustCompile(logic.MustParseFormula("a >= 0"))
	o, _ := NewOnline(prog, initial, 1, Options{})
	o.FinishThread(0)
	if _, err := o.Close(); err != nil {
		t.Fatal(err)
	}
	if err := o.Feed(msg(0, "a", 1, 1)); err == nil {
		t.Errorf("feed after close accepted")
	}
	// Second close is a no-op.
	if _, err := o.Close(); err != nil {
		t.Errorf("second close errored: %v", err)
	}
}

// TestOnlineCounterexamples: the online analyzer reports full
// counterexample runs when asked, matching the offline analyzer's.
func TestOnlineCounterexamples(t *testing.T) {
	t.Parallel()
	msgs := []event.Message{
		msg(0, "approved", 1, 1, 0),
		msg(0, "landing", 1, 2, 0),
		msg(1, "radio", 0, 0, 1),
	}
	initial := logic.StateFromMap(map[string]int64{"landing": 0, "approved": 0, "radio": 1})
	o, err := NewOnline(landingProp, initial, 2, Options{Counterexamples: true})
	if err != nil {
		t.Fatal(err)
	}
	res := feedAll(t, o, msgs, 2)
	if !res.Violated() {
		t.Fatalf("violation missed")
	}
	v := res.Violations[0]
	if v.Run == nil {
		t.Fatalf("counterexample missing")
	}
	// The counterexample itself violates per the single-trace checker.
	idx, err := monitor.CheckTrace(landingProp, v.Run.States)
	if err != nil {
		t.Fatal(err)
	}
	if idx < 0 {
		t.Fatalf("online counterexample does not violate")
	}
	if last := v.Run.Msgs[len(v.Run.Msgs)-1]; last.Event.Var != "landing" {
		t.Fatalf("counterexample ends with %s", last.Event.Var)
	}
}

// TestUnboundWriteStateNeutral: a message that writes a variable the
// initial state does not bind changes no cut's state, like a channel
// event. No atom can read the variable (the root evaluates every atom
// over the initial state), so strict and lossy analyses, offline and
// online, explore the whole lattice and report the violation after
// it, whose State and counterexample bind only the initial state's
// variables.
func TestUnboundWriteStateNeutral(t *testing.T) {
	t.Parallel()
	prog := monitor.MustCompile(logic.MustParseFormula("x < 5"))
	initial := logic.StateFromMap(map[string]int64{"x": 0})
	msgs := []event.Message{msg(0, "x", 1, 1), msg(0, "ghost", 7, 2), msg(0, "x", 9, 3)}
	comp, err := lattice.NewComputation(initial, 1, msgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, lossy := range []bool{false, true} {
		opts := Options{Lossy: lossy, Counterexamples: true}
		off, err := Analyze(prog, comp, opts)
		if err != nil {
			t.Fatal(err)
		}
		o, err := NewOnline(prog, initial, 1, opts)
		if err != nil {
			t.Fatal(err)
		}
		on := feedAll(t, o, msgs, 1)
		for mode, res := range map[string]Result{"offline": off, "online": on} {
			if res.Degraded != nil || res.Stats.Cuts != 4 || len(res.Violations) != 1 {
				t.Fatalf("lossy=%v %s: degraded %v, %d cuts, violations %v; want 4 cuts and one violation",
					lossy, mode, res.Degraded, res.Stats.Cuts, res.Violations)
			}
			v := res.Violations[0]
			if v.Cut.Level() != 3 || v.Cut.State().String() != "{x=9}" || v.Run == nil || v.Run.States[3].String() != "{x=9}" {
				t.Errorf("lossy=%v %s: violation at level %d in %s (run %v), want level 3 in {x=9}", lossy, mode, v.Cut.Level(), v.Cut.State(), v.Run)
			}
		}
	}
}

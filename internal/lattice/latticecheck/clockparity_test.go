package latticecheck

import (
	"math/rand"
	"testing"

	"gompax/internal/causality"
	"gompax/internal/clock"
	"gompax/internal/event"
	"gompax/internal/lab"
	"gompax/internal/lattice"
	"gompax/internal/monitor"
	"gompax/internal/mvc"
	"gompax/internal/predict"
	"gompax/internal/vc"
)

// analyzeAllModes runs one message stream through both explorer
// modes — offline and online — and returns the two rendered results.
func analyzeAllModes(t *testing.T, c Case, msgs []event.Message, cex bool) [2]string {
	t.Helper()
	prog, err := monitor.Compile(c.Formula)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := lattice.NewComputation(c.Initial, c.Threads, msgs)
	if err != nil {
		t.Fatal(err)
	}
	var out [2]string
	res, err := predict.Analyze(prog, comp, predict.Options{Counterexamples: cex})
	if err != nil {
		t.Fatal(err)
	}
	out[0] = render(res)
	o, err := predict.NewOnline(prog, c.Initial, c.Threads, predict.Options{Counterexamples: cex})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range msgs {
		if err := o.Feed(m); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < c.Threads; i++ {
		if err := o.FinishThread(i); err != nil {
			t.Fatal(err)
		}
	}
	if res, err = o.Close(); err != nil {
		t.Fatal(err)
	}
	out[1] = render(res)
	return out
}

// TestClockSubstrateParity is the clock-parity harness: 500 random
// computations (50 under -short; GOMPAX_LAB_CASES overrides both, so
// `make gate` can deepen the run without editing this file), each
// executed through both Algorithm A
// implementations — the production mvc.Tracker on interned clock.Ref
// values and the naive LegacyTracker on mutable vc.VC values. For
// every case it asserts
//
//  1. message parity: both trackers emit the same messages with equal
//     clocks (vc.Equal absorbs the interned normalization that drops
//     trailing zero components);
//  2. Theorem 3 equivalence on both substrates: for every ordered pair
//     of emitted messages, e ⊲ e' iff V[i] ≤ V'[i] iff V < V',
//     checked against the ground-truth causality ≺ computed
//     independently from its definition — with clock.Precedes,
//     clock.Less and clock.Leq on the interned side and vc.Precedes
//     and vc.Less on the legacy side;
//  3. explorer parity: both explorer modes produce byte-identical
//     verdicts, counterexamples and statistics whether fed the
//     interned tracker's messages or messages re-interned from the
//     legacy tracker's vectors.
func TestClockSubstrateParity(t *testing.T) {
	t.Parallel()
	cases := lab.Cases(500, 50, testing.Short())
	rng := rand.New(rand.NewSource(99))
	explored := 0
	for iter := 0; iter < cases; iter++ {
		c, err := Random(rng)
		if err != nil {
			t.Fatal(err)
		}

		leg := NewLegacyTracker(c.Threads, mvc.WritesOf(c.Relevant...))
		for _, e := range c.Events {
			got := leg.Process(event.Event{Thread: e.Thread, Kind: e.Kind, Var: e.Var, Value: e.Value})
			if got != e {
				t.Fatalf("iter %d: legacy tracker completed event %+v, interned %+v", iter, got, e)
			}
		}

		// 1. Message parity.
		if len(leg.Msgs) != len(c.Msgs) {
			t.Fatalf("iter %d: legacy emitted %d messages, interned %d", iter, len(leg.Msgs), len(c.Msgs))
		}
		for k, lm := range leg.Msgs {
			im := c.Msgs[k]
			if lm.Event != im.Event {
				t.Fatalf("iter %d msg %d: events differ: %+v vs %+v", iter, k, lm.Event, im.Event)
			}
			if !vc.Equal(lm.Clock, im.Clock.VC()) {
				t.Fatalf("iter %d msg %d: clocks differ: %v vs %v", iter, k, lm.Clock, im.Clock)
			}
		}

		// 2. Theorem 3 on both substrates against ground truth.
		gt := causality.Build(c.Events)
		pos := map[string]int{}
		for i, e := range c.Events {
			pos[e.ID()] = i
		}
		for a := range c.Msgs {
			for b := range c.Msgs {
				if a == b {
					continue
				}
				ma, mb := c.Msgs[a], c.Msgs[b]
				la, lb := leg.Msgs[a], leg.Msgs[b]
				want := gt.Precedes(pos[ma.Event.ID()], pos[mb.Event.ID()])
				checks := []struct {
					name string
					got  bool
				}{
					{"clock.Precedes", clock.Precedes(ma.Clock, ma.Event.Thread, mb.Clock)},
					{"clock.Less", clock.Less(ma.Clock, mb.Clock)},
					{"vc.Precedes", vc.Precedes(la.Clock, la.Event.Thread, lb.Clock)},
					{"vc.Less", vc.Less(la.Clock, lb.Clock)},
				}
				for _, ck := range checks {
					if ck.got != want {
						t.Fatalf("iter %d: %s = %v but ground truth ≺ is %v for %v vs %v",
							iter, ck.name, ck.got, want, ma, mb)
					}
				}
				// Leq is Less-or-Equal; distinct events have distinct
				// clocks (step 1 ticks the emitter), so it must agree.
				if got := clock.Leq(ma.Clock, mb.Clock); got != want {
					t.Fatalf("iter %d: clock.Leq = %v but ground truth ≺ is %v for %v vs %v",
						iter, got, want, ma, mb)
				}
			}
		}

		// 3. Both explorer modes, both clock arms, byte-identical.
		// Oversized lattices are skipped (bounded differential check);
		// the Theorem 3 and message-parity assertions above already ran.
		if _, err := lattice.Build(c.Comp, maxBuildNodes); err != nil {
			continue
		}
		table := clock.NewTable()
		relegacy := make([]event.Message, len(leg.Msgs))
		for k, lm := range leg.Msgs {
			relegacy[k] = event.Message{Event: lm.Event, Clock: table.Intern(lm.Clock)}
		}
		rng.Intn(7) // unused: drawn so each seed keeps generating the same cases
		cex := iter%2 == 0
		interned := analyzeAllModes(t, c, c.Msgs, cex)
		legacyRes := analyzeAllModes(t, c, relegacy, cex)
		want := interned[0]
		if interned[1] != want {
			t.Fatalf("iter %d: interned online mode diverged:\n--- offline ---\n%s--- online ---\n%s",
				iter, want, interned[1])
		}
		for k := range legacyRes {
			if legacyRes[k] != want {
				t.Fatalf("iter %d: legacy-clock mode %d diverged from interned:\n--- interned ---\n%s--- legacy ---\n%s",
					iter, k, want, legacyRes[k])
			}
		}
		explored++
	}
	t.Logf("%d cases checked, %d small enough for the 4-way explorer comparison", cases, explored)
}

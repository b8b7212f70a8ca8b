package latticecheck

import (
	"fmt"
	"math/rand"
	"testing"

	"gompax/internal/causality"
	"gompax/internal/clock"
	"gompax/internal/event"
	"gompax/internal/lattice"
	"gompax/internal/logic"
	"gompax/internal/mvc"
	"gompax/internal/trace"
	"gompax/internal/vc"
)

// deepCase draws one deep-thread case: a random workload over far more
// threads than the small-grid harness's 2–5, sized so every thread
// performs a handful of operations and the shared variables entangle
// all of their causal pasts (every join is a wide fan-in at scale).
// Two relevant variables keep the computation lattice a tractable grid
// of two causal write chains while the clocks themselves grow to
// `threads` components.
func deepCase(rng *rand.Rand, threads int) Case {
	c := Case{Threads: threads}
	c.Ops = trace.RandomOps(rng, trace.GenConfig{
		Threads: threads,
		Vars:    4,
		Length:  4 * threads,
	})
	c.Relevant = []string{trace.VarName(0), trace.VarName(1)}
	im := map[string]int64{}
	for _, v := range c.Relevant {
		im[v] = 0
	}
	c.Initial = logic.StateFromMap(im)
	c.Formula = logic.GenFormula(rng, c.Relevant, 1+rng.Intn(3))
	return c
}

// TestDeepThreadClockParity is the deep-scale arm of the clock-parity
// harness: at threads ∈ {64, 256, 1024} (the last skipped under
// -short) it replays one random workload on the production tracker and
// the legacy vc.VC tracker and asserts
//
//  1. message parity — identical events, clocks vc.Equal to the
//     legacy oracle's;
//  2. Theorem 3 against the independent causality ground truth on
//     both trackers (all ordered message pairs at the small scales, a
//     seeded sample at 1024);
//  3. explorer parity — when the lattice is small enough to
//     materialize, both explorer modes produce byte-identical verdicts
//     from the production messages and from the legacy vectors
//     re-interned.
//
// This pins the clock layer in the regime the unit tests' toy vectors
// do not reach: thousand-component clocks with wide fan-in joins.
func TestDeepThreadClockParity(t *testing.T) {
	t.Parallel()
	scales := []int{64, 256}
	if !testing.Short() {
		scales = append(scales, 1024)
	}
	for _, threads := range scales {
		threads := threads
		t.Run(fmt.Sprintf("t%d", threads), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(1000 + threads)))
			c := deepCase(rng, threads)
			policy := mvc.WritesOf(c.Relevant...)

			events, msgs := trace.Execute(c.Ops, threads, policy)
			leg := NewLegacyTracker(threads, policy)
			for _, e := range events {
				if got := leg.Process(event.Event{Thread: e.Thread, Kind: e.Kind, Var: e.Var, Value: e.Value}); got != e {
					t.Fatalf("legacy tracker completed event %+v, production %+v", got, e)
				}
			}

			// 1. Message parity against the legacy oracle.
			if len(msgs) != len(leg.Msgs) {
				t.Fatalf("message counts differ: production %d legacy %d", len(msgs), len(leg.Msgs))
			}
			for k := range msgs {
				fm, lm := msgs[k], leg.Msgs[k]
				if fm.Event != lm.Event {
					t.Fatalf("msg %d: events differ: %+v vs %+v", k, fm.Event, lm.Event)
				}
				if !vc.Equal(lm.Clock, fm.Clock.VC()) || fm.Clock.Key() != lm.Clock.Key() {
					t.Fatalf("msg %d: legacy clock %v != clock %s", k, lm.Clock, fm.Clock)
				}
			}

			// 2. Theorem 3 against ground truth on both trackers.
			gt := causality.Build(events)
			pos := map[string]int{}
			for i, e := range events {
				pos[e.ID()] = i
			}
			check := func(a, b int) {
				fa, fb := msgs[a], msgs[b]
				la, lb := leg.Msgs[a], leg.Msgs[b]
				want := gt.Precedes(pos[fa.Event.ID()], pos[fb.Event.ID()])
				checks := []struct {
					name string
					got  bool
				}{
					{"clock.Precedes", clock.Precedes(fa.Clock, fa.Event.Thread, fb.Clock)},
					{"clock.Less", clock.Less(fa.Clock, fb.Clock)},
					{"vc.Precedes", vc.Precedes(la.Clock, la.Event.Thread, lb.Clock)},
					{"vc.Less", vc.Less(la.Clock, lb.Clock)},
				}
				for _, ck := range checks {
					if ck.got != want {
						t.Fatalf("%s = %v but ground truth ≺ is %v for msgs %d, %d",
							ck.name, ck.got, want, a, b)
					}
				}
			}
			m := len(msgs)
			if m*m <= 40000 {
				for a := 0; a < m; a++ {
					for b := 0; b < m; b++ {
						if a != b {
							check(a, b)
						}
					}
				}
			} else {
				for s := 0; s < 40000; s++ {
					a, b := rng.Intn(m), rng.Intn(m)
					if a != b {
						check(a, b)
					}
				}
			}

			// 3. Explorer parity when the lattice is materializable; at
			// the largest scale the grid exceeds the bound and only the
			// message and Theorem 3 parity above apply (same bounded
			// differential-check policy as the small harness).
			comp, err := lattice.NewComputation(c.Initial, threads, msgs)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := lattice.Build(comp, maxBuildNodes); err != nil {
				t.Logf("t%d: lattice too large to materialize (%d messages), explorer parity skipped", threads, m)
				return
			}
			table := clock.NewTable()
			relegacy := make([]event.Message, len(leg.Msgs))
			for k, lm := range leg.Msgs {
				relegacy[k] = event.Message{Event: lm.Event, Clock: table.Intern(lm.Clock)}
			}
			res := analyzeAllModes(t, c, msgs, true)
			legacyRes := analyzeAllModes(t, c, relegacy, true)
			want := res[0]
			for k := range res {
				if res[k] != want {
					t.Fatalf("mode %d diverged:\n--- mode 0 ---\n%s--- mode %d ---\n%s",
						k, want, k, res[k])
				}
				if legacyRes[k] != want {
					t.Fatalf("legacy-clock mode %d diverged:\n--- production ---\n%s--- legacy ---\n%s",
						k, want, legacyRes[k])
				}
			}
			t.Logf("t%d: %d events, %d messages, explorer parity across 4 arms", threads, len(events), m)
		})
	}
}

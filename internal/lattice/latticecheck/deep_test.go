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
// -short) it replays one random workload on flat-backed, tree-backed
// and legacy vc.VC trackers and asserts
//
//  1. message parity — identical events, cross-substrate-Equal clocks
//     with equal canonical keys, vc.Equal against the legacy oracle;
//  2. Theorem 3 against the independent causality ground truth on both
//     substrates and on mixed flat/tree comparisons (all ordered
//     message pairs at the small scales, a seeded sample at 1024);
//  3. explorer parity — when the lattice is small enough to
//     materialize, both explorer modes produce byte-identical
//     verdicts from the flat-backed and the tree-backed messages.
//
// This is where the tree substrate earns its correctness claim in the
// regime it exists for: thousands-component clocks with wide fan-in
// joins, not the toy vectors the unit tests cover.
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

			flatEvents, flatMsgs := trace.ExecuteOpts(c.Ops, threads, policy, clock.Options{Repr: clock.ReprFlat})
			treeEvents, treeMsgs := trace.ExecuteOpts(c.Ops, threads, policy, clock.Options{Repr: clock.ReprTree})
			leg := NewLegacyTracker(threads, policy)
			for _, e := range flatEvents {
				leg.Process(event.Event{Thread: e.Thread, Kind: e.Kind, Var: e.Var, Value: e.Value})
			}

			// 1. Message parity across all three substrates.
			if len(flatEvents) != len(treeEvents) {
				t.Fatalf("event counts differ: flat %d tree %d", len(flatEvents), len(treeEvents))
			}
			for i := range flatEvents {
				if flatEvents[i] != treeEvents[i] {
					t.Fatalf("event %d differs: flat %+v tree %+v", i, flatEvents[i], treeEvents[i])
				}
			}
			if len(flatMsgs) != len(treeMsgs) || len(flatMsgs) != len(leg.Msgs) {
				t.Fatalf("message counts differ: flat %d tree %d legacy %d",
					len(flatMsgs), len(treeMsgs), len(leg.Msgs))
			}
			for k := range flatMsgs {
				fm, tm, lm := flatMsgs[k], treeMsgs[k], leg.Msgs[k]
				if fm.Event != tm.Event || fm.Event != lm.Event {
					t.Fatalf("msg %d: events differ across substrates", k)
				}
				if !clock.Equal(fm.Clock, tm.Clock) || fm.Clock.Key() != tm.Clock.Key() {
					t.Fatalf("msg %d: flat clock %s != tree clock %s", k, fm.Clock, tm.Clock)
				}
				if !vc.Equal(lm.Clock, tm.Clock.VC()) {
					t.Fatalf("msg %d: legacy clock %v != tree clock %s", k, lm.Clock, tm.Clock)
				}
			}

			// 2. Theorem 3 against ground truth, flat, tree and mixed.
			gt := causality.Build(flatEvents)
			pos := map[string]int{}
			for i, e := range flatEvents {
				pos[e.ID()] = i
			}
			check := func(a, b int) {
				fa, fb := flatMsgs[a], flatMsgs[b]
				ta, tb := treeMsgs[a], treeMsgs[b]
				la, lb := leg.Msgs[a], leg.Msgs[b]
				want := gt.Precedes(pos[fa.Event.ID()], pos[fb.Event.ID()])
				checks := []struct {
					name string
					got  bool
				}{
					{"flat clock.Precedes", clock.Precedes(fa.Clock, fa.Event.Thread, fb.Clock)},
					{"flat clock.Less", clock.Less(fa.Clock, fb.Clock)},
					{"tree clock.Precedes", clock.Precedes(ta.Clock, ta.Event.Thread, tb.Clock)},
					{"tree clock.Less", clock.Less(ta.Clock, tb.Clock)},
					{"mixed clock.Less", clock.Less(fa.Clock, tb.Clock)},
					{"vc.Less", vc.Less(la.Clock, lb.Clock)},
				}
				for _, ck := range checks {
					if ck.got != want {
						t.Fatalf("%s = %v but ground truth ≺ is %v for msgs %d, %d",
							ck.name, ck.got, want, a, b)
					}
				}
			}
			m := len(flatMsgs)
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
			comp, err := lattice.NewComputation(c.Initial, threads, flatMsgs)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := lattice.Build(comp, maxBuildNodes); err != nil {
				t.Logf("t%d: lattice too large to materialize (%d messages), explorer parity skipped", threads, m)
				return
			}
			flatRes := analyzeAllModes(t, c, flatMsgs, true)
			treeRes := analyzeAllModes(t, c, treeMsgs, true)
			want := flatRes[0]
			for k := range flatRes {
				if flatRes[k] != want {
					t.Fatalf("flat mode %d diverged:\n--- mode 0 ---\n%s--- mode %d ---\n%s",
						k, want, k, flatRes[k])
				}
				if treeRes[k] != want {
					t.Fatalf("tree mode %d diverged from flat:\n--- flat ---\n%s--- tree ---\n%s",
						k, want, treeRes[k])
				}
			}
			t.Logf("t%d: %d events, %d messages, explorer parity across 4 arms", threads, len(flatEvents), m)
		})
	}
}

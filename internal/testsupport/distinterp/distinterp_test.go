package distinterp

import (
	"math/rand"
	"testing"

	"gompax/internal/event"
	"gompax/internal/mvc"
	"gompax/internal/testsupport/vc"
	"gompax/internal/trace"
)

// TestDistributedInterpretationEquivalence makes §3.2's "almost"
// precise: the message-passing interpretation (standard distributed
// vector clock updates plus the one hidden message) tracks Algorithm A
// exactly — same thread clocks, same Va/Vw process clocks, same
// emitted messages — over random executions.
func TestDistributedInterpretationEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	for iter := 0; iter < 40; iter++ {
		threads := 2 + rng.Intn(4)
		ops := trace.RandomOps(rng, trace.GenConfig{Threads: threads, Vars: 3, Length: 80})
		policy := mvc.WritesOf(trace.VarName(0), trace.VarName(1))
		if iter%2 == 0 {
			policy = mvc.Everything()
		}

		colA := &mvc.Collector{}
		colD := &mvc.Collector{}
		tr := mvc.NewTracker(threads, policy, colA)
		di := New(threads, policy, colD)

		for _, op := range ops {
			e := event.Event{Thread: op.Thread, Kind: op.Kind, Var: op.Var, Value: op.Value}
			ea := tr.Process(e)
			ed := di.Process(e)
			if ea != ed {
				t.Fatalf("iter %d: events diverge: %+v vs %+v", iter, ea, ed)
			}
			// Clock-for-clock agreement after every event.
			for i := 0; i < threads; i++ {
				if !vc.Equal(vc.From(tr.ThreadClock(i)), di.ThreadClock(i)) {
					t.Fatalf("iter %d after %v: thread %d clock %v vs %v",
						iter, ea, i, tr.ThreadClock(i), di.ThreadClock(i))
				}
			}
			for _, x := range tr.Vars() {
				if !vc.Equal(vc.From(tr.AccessClock(x)), di.AccessClock(x)) {
					t.Fatalf("iter %d after %v: Va_%s %v vs %v",
						iter, ea, x, tr.AccessClock(x), di.AccessClock(x))
				}
				if !vc.Equal(vc.From(tr.WriteClock(x)), di.WriteClock(x)) {
					t.Fatalf("iter %d after %v: Vw_%s %v vs %v",
						iter, ea, x, tr.WriteClock(x), di.WriteClock(x))
				}
			}
		}
		if len(colA.Messages) != len(colD.Messages) {
			t.Fatalf("iter %d: %d vs %d messages", iter, len(colA.Messages), len(colD.Messages))
		}
		for k := range colA.Messages {
			if colA.Messages[k].String() != colD.Messages[k].String() {
				t.Fatalf("iter %d: message %d differs: %v vs %v",
					iter, k, colA.Messages[k], colD.Messages[k])
			}
		}
	}
}

// TestHiddenMessageMatters: if the hidden message were a normal one
// (reads updating xw), two reads of the same variable by different
// threads would become causally ordered — breaking read-read
// permutability. This pins down *why* the deviation exists.
func TestHiddenMessageMatters(t *testing.T) {
	// Standard (wrong) variant: read updates xw too.
	type wrongInterp struct {
		threads []vc.VC
		write   map[string]*vc.VC
		access  map[string]*vc.VC
	}
	w := wrongInterp{
		threads: []vc.VC{vc.New(2), vc.New(2)},
		write:   map[string]*vc.VC{},
		access:  map[string]*vc.VC{},
	}
	get := func(m map[string]*vc.VC, x string) *vc.VC {
		c, ok := m[x]
		if !ok {
			var fresh vc.VC
			c = &fresh
			m[x] = c
		}
		return c
	}
	read := func(i int, x string) {
		w.threads[i].Inc(i) // treat reads as relevant for visibility
		get(w.access, x).JoinInto(w.threads[i])
		get(w.write, x).JoinInto(*get(w.access, x)) // NOT hidden: xw updated
		w.threads[i].JoinInto(*get(w.write, x))
	}
	read(0, "x")
	read(1, "x")
	if vc.Concurrent(w.threads[0], w.threads[1]) {
		t.Fatalf("wrong variant should order the reads (that is its flaw)")
	}

	// The real interpretation keeps the reads concurrent.
	d := New(2, mvc.Policy{All: true}, nil)
	d.Process(event.Event{Thread: 0, Kind: event.Read, Var: "x"})
	d.Process(event.Event{Thread: 1, Kind: event.Read, Var: "x"})
	if !vc.Concurrent(d.ThreadClock(0), d.ThreadClock(1)) {
		t.Fatalf("hidden message failed: reads ordered %v vs %v", d.ThreadClock(0), d.ThreadClock(1))
	}
}

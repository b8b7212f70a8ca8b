// legacy.go carries a reference implementation of Algorithm A on the
// mutable vc.VC substrate — the representation the pipeline used
// before clocks became immutable clock.Ref values. It exists purely as a differential
// oracle: the clock-parity harness replays every random workload
// through both this tracker and the production mvc.Tracker and demands
// the two agree message-for-message and clock-for-clock, and that the
// explorers produce byte-identical verdicts from either arm's clocks.
//
// The implementation is deliberately naive: every stored vector is an
// owned copy, every emission clones, and the write step materializes
// two fresh vectors where the production tracker shares one handle. That
// is the point — it is the simplest possible transcription of Fig. 2,
// so disagreement with mvc.Tracker indicts the optimized code.
package latticecheck

import (
	"gompax/internal/event"
	"gompax/internal/mvc"
	"gompax/internal/testsupport/vc"
)

// LegacyMessage is a relevant-event message carrying a mutable legacy
// clock instead of an immutable Ref.
type LegacyMessage struct {
	Event event.Event
	Clock vc.VC
}

// LegacyTracker runs Algorithm A on vc.VC values, cloning wherever the
// production tracker shares structure.
type LegacyTracker struct {
	policy  mvc.Policy
	threads []vc.VC // V_i
	counts  []uint64
	access  map[string]vc.VC // Va_x
	write   map[string]vc.VC // Vw_x
	seq     uint64
	Msgs    []LegacyMessage
}

// NewLegacyTracker mirrors mvc.NewTracker for n threads.
func NewLegacyTracker(n int, policy mvc.Policy) *LegacyTracker {
	t := &LegacyTracker{
		policy:  policy,
		threads: make([]vc.VC, n),
		counts:  make([]uint64, n),
		access:  map[string]vc.VC{},
		write:   map[string]vc.VC{},
	}
	for i := range t.threads {
		t.threads[i] = vc.New(n)
	}
	return t
}

// Process runs Algorithm A on event e exactly as mvc.Tracker does,
// filling in Seq, Index and Relevant, and recording a message for
// relevant events.
func (t *LegacyTracker) Process(e event.Event) event.Event {
	i := e.Thread
	t.seq++
	t.counts[i]++
	e.Seq = t.seq
	e.Index = t.counts[i]
	e.Relevant = t.policy.Relevant(e)

	vi := t.threads[i]

	// Step 1: if e is relevant then V_i[i] <- V_i[i] + 1.
	if e.Relevant {
		vi.Inc(i)
	}

	switch {
	case e.Kind == event.Read:
		// Step 2: V_i <- max{V_i, Vw_x}; Va_x <- max{Va_x, V_i}.
		vi.JoinInto(t.write[e.Var])
		t.access[e.Var] = vc.Join(t.access[e.Var], vi)
	case e.Kind.IsWrite():
		// Step 3: Vw_x <- Va_x <- V_i <- max{Va_x, V_i}. Mutable
		// vectors cannot alias, so both variable clocks are clones.
		vi.JoinInto(t.access[e.Var])
		t.access[e.Var] = vi.Clone()
		t.write[e.Var] = vi.Clone()
	}
	t.threads[i] = vi

	// Step 4: if e is relevant, send <e, i, V_i> — cloned, because the
	// thread keeps mutating its vector.
	if e.Relevant {
		t.Msgs = append(t.Msgs, LegacyMessage{Event: e, Clock: vi.Clone()})
	}
	return e
}

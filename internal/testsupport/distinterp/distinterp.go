// Package distinterp makes executable the distributed-systems
// interpretation of Algorithm A from §3.2 (Fig. 3), the oracle for the
// paper's claim that MVCs are "almost" standard distributed vector
// clocks. It is part of the test-support tree: only tests import it.
package distinterp

import (
	"gompax/internal/clock"
	"gompax/internal/event"
	"gompax/internal/mvc"
	"gompax/internal/testsupport/vc"
)

// Interp is the distributed-systems interpretation: every thread i
// and, for every shared variable x, an "access process" xa and a
// "write process" xw, exchange messages carrying vector clocks with
// the *standard* distributed update rule — a receiver joins the
// sender's clock — plus the paper's one deviation, the "hidden"
// message:
//
//   - write of x by thread i (Fig. 3 right):
//     i --req--> xa --req--> xw --ack--> i
//   - read of x by thread i (Fig. 3 left):
//     i --req--> xa --hidden--> xw --ack--> i
//     where the hidden message does NOT update xw's clock; its only
//     role is to solicit the ack that flows xw's clock into i. This is
//     what keeps reads permutable by the observer.
//
// Threads increment their own component for relevant events, exactly
// like Algorithm A's step 1; the passive variable processes never
// increment anything.
//
// The paper answers "could the MVC algorithm be derived from standard
// distributed vector clocks?" with "almost"; the property test
// TestDistributedInterpretationEquivalence makes the claim precise by
// checking Interp tracks Algorithm A (mvc.Tracker) clock-for-clock and
// message-for-message on random executions.
type Interp struct {
	policy  mvc.Policy
	sink    mvc.Sink
	threads []vc.VC // thread process clocks
	counts  []uint64
	access  map[string]*vc.VC // xa process clocks
	write   map[string]*vc.VC // xw process clocks
	seq     uint64
}

// New mirrors mvc.NewTracker for the message-passing semantics.
// The protocol internals deliberately stay on the mutable vc reference
// clocks (this type exists to validate the paper's §3.2 claim, not to
// be fast); only the emitted messages carry a clock.Ref.
func New(n int, policy mvc.Policy, sink mvc.Sink) *Interp {
	d := &Interp{
		policy:  policy,
		sink:    sink,
		threads: make([]vc.VC, n),
		counts:  make([]uint64, n),
		access:  map[string]*vc.VC{},
		write:   map[string]*vc.VC{},
	}
	for i := range d.threads {
		d.threads[i] = vc.New(n)
	}
	return d
}

func (d *Interp) proc(m map[string]*vc.VC, x string) *vc.VC {
	c, ok := m[x]
	if !ok {
		var fresh vc.VC
		c = &fresh
		m[x] = c
	}
	return c
}

// deliver applies the standard receive rule: the receiver joins the
// message's (sender's) clock.
func deliver(receiver *vc.VC, msgClock vc.VC) {
	receiver.JoinInto(msgClock)
}

// Process runs the message-passing protocol for one event and returns
// the completed event, mirroring mvc.Tracker.Process.
func (d *Interp) Process(e event.Event) event.Event {
	i := e.Thread
	d.seq++
	d.counts[i]++
	e.Seq = d.seq
	e.Index = d.counts[i]
	e.Relevant = d.policy.Relevant(e)

	// Step 1: a relevant event is an event of process i.
	if e.Relevant {
		d.threads[i].Inc(i)
	}

	switch {
	case e.Kind == event.Read:
		xa := d.proc(d.access, e.Var)
		xw := d.proc(d.write, e.Var)
		// i --req--> xa : xa joins i's clock.
		deliver(xa, d.threads[i])
		// xa --hidden--> xw : xw is NOT updated (the deviation).
		// xw --ack--> i : i joins xw's clock.
		deliver(&d.threads[i], *xw)
		// The ack reaches i after xa processed the request, so xa's
		// clock already includes i's pre-ack knowledge; because
		// C(xw) ≤ C(xa) always, this equals Algorithm A's
		// Va <- max(Va, Vi-after-join).
	case e.Kind.IsWrite():
		xa := d.proc(d.access, e.Var)
		xw := d.proc(d.write, e.Var)
		// i --req--> xa.
		deliver(xa, d.threads[i])
		// xa --req--> xw.
		deliver(xw, *xa)
		// xw --ack--> i.
		deliver(&d.threads[i], *xw)
	}

	if e.Relevant && d.sink != nil {
		d.sink.Emit(event.Message{Event: e, Clock: clock.New(d.threads[i])})
	}
	return e
}

// ThreadClock returns a copy of process i's clock.
func (d *Interp) ThreadClock(i int) vc.VC { return d.threads[i].Clone() }

// AccessClock returns a copy of process xa's clock.
func (d *Interp) AccessClock(x string) vc.VC {
	if c, ok := d.access[x]; ok {
		return c.Clone()
	}
	return nil
}

// WriteClock returns a copy of process xw's clock.
func (d *Interp) WriteClock(x string) vc.VC {
	if c, ok := d.write[x]; ok {
		return c.Clone()
	}
	return nil
}

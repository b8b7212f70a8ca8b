// Package mvc implements Algorithm A of Roşu & Sen (Fig. 2): the
// multithreaded vector clock (MVC) instrumentation algorithm that, run
// at every event of a multithreaded execution, maintains
//
//   - one MVC V_i per thread t_i,
//   - one access MVC Va_x and one write MVC Vw_x per shared variable x,
//
// and emits a message <e, i, V_i> to an external observer for every
// relevant event e. By Theorem 3, for any two emitted messages
// <e, i, V> and <e', i', V'>:  e ⊲ e' iff V[i] ≤ V'[i] iff V < V'.
//
// The Tracker type is the unsynchronized core, intended to be driven by
// a runtime that already serializes shared-variable accesses (the
// sequential memory model the paper assumes, §2.1). ConcurrentTracker
// wraps it in a mutex for use directly from goroutines — the "enforce
// shared variable updates via library functions" implementation option
// of §1.
package mvc

import (
	"fmt"
	"sort"
	"time"

	"gompax/internal/clock"
	"gompax/internal/event"
	"gompax/internal/telemetry"
)

// Sink receives the messages Algorithm A emits for relevant events.
type Sink interface {
	Emit(m event.Message)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(event.Message)

// Emit calls f(m).
func (f SinkFunc) Emit(m event.Message) { f(m) }

// Collector is a Sink that accumulates messages in order of emission.
type Collector struct {
	Messages []event.Message
}

// Emit appends m.
func (c *Collector) Emit(m event.Message) { c.Messages = append(c.Messages, m) }

// Policy decides which events are relevant (the set R of §2.3). The
// zero value marks nothing relevant.
type Policy struct {
	// Vars is the set of relevant shared variables — in JMPaX, the
	// variables mentioned by the specification (§4.1).
	Vars map[string]bool
	// Writes marks writes of relevant variables relevant. JMPaX's
	// instrumentor does exactly this: relevant events are the state
	// updates the observer reconstructs states from.
	Writes bool
	// Reads additionally marks reads of relevant variables relevant.
	Reads bool
	// All marks every event relevant regardless of Vars (useful for
	// ground-truth testing of the full causality relation).
	All bool
}

// WritesOf returns the standard JMPaX policy: writes of the named
// variables are relevant.
func WritesOf(vars ...string) Policy {
	m := make(map[string]bool, len(vars))
	for _, v := range vars {
		m[v] = true
	}
	return Policy{Vars: m, Writes: true}
}

// Everything returns a policy under which all events are relevant.
func Everything() Policy { return Policy{All: true} }

// Relevant reports whether e ∈ R under the policy.
func (p Policy) Relevant(e event.Event) bool {
	if p.All {
		return true
	}
	if e.Kind.IsChannel() {
		// Channel events are always relevant: the message-passing
		// analyses (package msg) need every one of them, and programs
		// without channels emit none — so legacy relevance is
		// unchanged.
		return true
	}
	if !p.Vars[e.Var] {
		return false
	}
	switch {
	case e.Kind.IsWrite():
		return p.Writes
	case e.Kind == event.Read:
		return p.Reads
	}
	return false
}

type varClocks struct {
	access clock.Ref // Va_x
	write  clock.Ref // Vw_x
	events *telemetry.Counter
}

// Tracker runs Algorithm A on the interned clock substrate: every
// vector-clock value lives in the tracker's clock.Table, step 1 is a
// persistent Tick, steps 2-3 are persistent Joins (the write step's
// V_w = V_a = V_i is pure handle sharing), and step 4 emits the
// thread's Ref itself — no clone per message. Tracker is not safe for
// concurrent use; see ConcurrentTracker.
type Tracker struct {
	policy  Policy
	sink    Sink
	table   *clock.Table
	threads []clock.Ref // V_i, indexed by thread
	counts  []uint64    // per-thread event index (k of e_i^k)
	tallies []*telemetry.Counter
	vars    map[string]*varClocks
	chans   map[string]*chanClocks
	seq     uint64 // global position in the observed execution M
	emitted uint64
}

// NewTracker returns a tracker for n initial threads (more may be added
// with Fork) using the given relevance policy. Messages for relevant
// events are delivered to sink; a nil sink discards them.
func NewTracker(n int, policy Policy, sink Sink) *Tracker {
	t := &Tracker{
		policy:  policy,
		sink:    sink,
		table:   clock.NewTable(),
		threads: make([]clock.Ref, n), // zero Refs: all-zero clocks
		counts:  make([]uint64, n),
		tallies: make([]*telemetry.Counter, n),
		vars:    make(map[string]*varClocks),
		chans:   make(map[string]*chanClocks),
	}
	for i := range t.threads {
		t.tallies[i] = threadCounter(i)
	}
	return t
}

// Table returns the tracker's interning table. All clocks the tracker
// emits are canonical within it, so Refs taken from one tracker are
// directly comparable and usable as map keys.
func (t *Tracker) Table() *clock.Table { return t.table }

// Threads returns the number of registered threads.
func (t *Tracker) Threads() int { return len(t.threads) }

// Emitted returns how many relevant messages have been sent.
func (t *Tracker) Emitted() uint64 { return t.emitted }

// Seq returns the number of events processed so far (the length of the
// observed execution M).
func (t *Tracker) Seq() uint64 { return t.seq }

// ThreadClock returns V_i. Refs are immutable, so no copy is needed.
func (t *Tracker) ThreadClock(i int) clock.Ref { return t.threads[i] }

// AccessClock returns Va_x (zero clock if x never accessed).
func (t *Tracker) AccessClock(x string) clock.Ref {
	if c, ok := t.vars[x]; ok {
		return c.access
	}
	return clock.Ref{}
}

// WriteClock returns Vw_x (zero clock if x never written).
func (t *Tracker) WriteClock(x string) clock.Ref {
	if c, ok := t.vars[x]; ok {
		return c.write
	}
	return clock.Ref{}
}

// Vars returns the sorted names of shared variables seen so far.
func (t *Tracker) Vars() []string {
	out := make([]string, 0, len(t.vars))
	for x := range t.vars {
		out = append(out, x)
	}
	sort.Strings(out)
	return out
}

// Fork registers a new thread whose clock starts as the parent's,
// establishing causal precedence of all the parent's prior events over
// all of the child's events. It returns the child thread id. This
// realizes the dynamic thread creation extension (§2); with interned
// clocks the child shares the parent's clock structurally — Spawn
// allocates nothing.
func (t *Tracker) Fork(parent int) int {
	t.mustThread(parent)
	child := len(t.threads)
	t.threads = append(t.threads, t.threads[parent])
	t.counts = append(t.counts, 0)
	t.tallies = append(t.tallies, threadCounter(child))
	// The spawn itself is an event of the parent thread.
	t.Process(event.Event{Thread: parent, Kind: event.Spawn})
	return child
}

// Internal processes an internal event of thread i.
func (t *Tracker) Internal(i int) event.Event {
	return t.Process(event.Event{Thread: i, Kind: event.Internal})
}

// Read processes a read of shared variable x by thread i that observed
// the given value.
func (t *Tracker) Read(i int, x string, value int64) event.Event {
	return t.Process(event.Event{Thread: i, Kind: event.Read, Var: x, Value: value})
}

// Write processes a write of value to shared variable x by thread i.
func (t *Tracker) Write(i int, x string, value int64) event.Event {
	return t.Process(event.Event{Thread: i, Kind: event.Write, Var: x, Value: value})
}

// Acquire processes the lock-acquire event of §3.1: a write of the
// lock's shared variable.
func (t *Tracker) Acquire(i int, lock string) event.Event {
	return t.Process(event.Event{Thread: i, Kind: event.Acquire, Var: lock})
}

// Release processes the lock-release event of §3.1.
func (t *Tracker) Release(i int, lock string) event.Event {
	return t.Process(event.Event{Thread: i, Kind: event.Release, Var: lock})
}

// Signal processes the notifying thread's dummy write before
// notification (§3.1).
func (t *Tracker) Signal(i int, cond string) event.Event {
	return t.Process(event.Event{Thread: i, Kind: event.Signal, Var: cond})
}

// WaitResume processes the notified thread's dummy write after it is
// resumed (§3.1).
func (t *Tracker) WaitResume(i int, cond string) event.Event {
	return t.Process(event.Event{Thread: i, Kind: event.WaitResume, Var: cond})
}

func (t *Tracker) mustThread(i int) {
	if i < 0 || i >= len(t.threads) {
		panic(fmt.Sprintf("mvc: thread %d out of range [0,%d)", i, len(t.threads)))
	}
}

func (t *Tracker) clocks(x string) *varClocks {
	c, ok := t.vars[x]
	if !ok {
		c = &varClocks{events: mVarEvents.With(x)}
		t.vars[x] = c
	}
	return c
}

// Process runs Algorithm A on event e, filling in its Seq, Index and
// Relevant fields, and returns the completed event. For relevant events
// a message <e, i, V_i> is emitted to the sink.
func (t *Tracker) Process(e event.Event) event.Event {
	i := e.Thread
	t.mustThread(i)

	var start time.Time
	timed := telemetry.Active()
	if timed {
		start = time.Now()
	}

	t.seq++
	t.counts[i]++
	e.Seq = t.seq
	e.Index = t.counts[i]
	e.Relevant = t.policy.Relevant(e)

	vi := t.threads[i]

	// Step 1: if e is relevant then V_i[i] <- V_i[i] + 1.
	if e.Relevant {
		vi = t.table.Tick(vi, i)
	}

	switch {
	case e.Kind == event.Read:
		// Step 2: V_i <- max{V_i, Vw_x}; Va_x <- max{Va_x, V_i}.
		c := t.clocks(e.Var)
		c.events.Inc()
		vi = t.table.Join(vi, c.write)
		c.access = t.table.Join(c.access, vi)
	case e.Kind.IsWrite():
		// Step 3: Vw_x <- Va_x <- V_i <- max{Va_x, V_i}. With
		// immutable clocks the three-way assignment is handle sharing.
		c := t.clocks(e.Var)
		c.events.Inc()
		vi = t.table.Join(vi, c.access)
		c.access = vi
		c.write = vi
	}
	t.threads[i] = vi

	// Step 4: if e is relevant, send <e, i, V_i> to the observer. The
	// emitted clock is the interned value itself — nothing to clone.
	if e.Relevant {
		t.emitted++
		mEmitted.Inc()
		if t.sink != nil {
			t.sink.Emit(event.Message{Event: e, Clock: vi})
		}
	}
	t.tallies[i].Inc()
	if timed {
		mUpdateLatency.Observe(uint64(time.Since(start)))
	}
	return e
}

// Package event defines the event model of the instrumentation
// technique: the typed events a multithreaded execution generates
// (internal, read, write, and the synchronization events of §3.1 which
// desugar to shared-variable writes), and the <e, i, V> messages that
// Algorithm A emits to the external observer.
package event

import (
	"fmt"

	"gompax/internal/clock"
)

// Kind classifies an event in a multithreaded execution (§2.1). The
// paper's core model has internal, read and write events;
// synchronization events (§3.1) are carried as distinct kinds so traces
// stay readable, but they behave exactly like writes of the associated
// shared variable for causality purposes.
type Kind uint8

const (
	// Internal is an event that touches no shared variable.
	Internal Kind = iota
	// Read is a read of a shared variable.
	Read
	// Write is a write of a shared variable.
	Write
	// Acquire is a lock acquisition; per §3.1 it is a write of the
	// lock's shared variable.
	Acquire
	// Release is a lock release; per §3.1 it is a write of the lock's
	// shared variable.
	Release
	// Signal is the write of a dummy shared variable performed by a
	// notifying thread before notification (§3.1).
	Signal
	// WaitResume is the write of the same dummy variable performed by
	// the notified thread after it resumes (§3.1).
	WaitResume
	// Spawn marks dynamic creation of a thread; the child inherits the
	// parent's clock (dynamic-thread extension mentioned in §2).
	Spawn
	// ChanSend is a completed send of a value into a channel. Its Slot
	// is the 1-based position of the send among all sends on that
	// channel (the FIFO slot, following Sulzmann–Stadtmüller's
	// per-channel send/receive counters).
	ChanSend
	// ChanRecv is a completed receive of a value from a channel; Slot is
	// the 1-based position among the channel's receives, so the k-th
	// receive pairs with the k-th send.
	ChanRecv
	// ChanClose closes a channel; Slot records how many sends the
	// channel had seen at close time.
	ChanClose
	// ChanSendClosed is the runtime fault of sending on a closed
	// channel (the send does not transfer a value; the thread halts).
	ChanSendClosed
	// ChanRecvClosed is a receive from a closed, drained channel: it
	// yields the zero value instead of a sent one.
	ChanRecvClosed
	// ChanBlock marks a thread parking on a channel operation with no
	// available partner. Aux describes the blocked operation and, for
	// select, every alternative communication. A thread whose last
	// event is an unresolved ChanBlock is blocked at session end.
	ChanBlock
)

var kindNames = [...]string{
	Internal:       "internal",
	Read:           "read",
	Write:          "write",
	Acquire:        "acquire",
	Release:        "release",
	Signal:         "signal",
	WaitResume:     "waitresume",
	Spawn:          "spawn",
	ChanSend:       "chansend",
	ChanRecv:       "chanrecv",
	ChanClose:      "chanclose",
	ChanSendClosed: "chansendclosed",
	ChanRecvClosed: "chanrecvclosed",
	ChanBlock:      "chanblock",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// IsAccess reports whether the event kind reads or writes a shared
// variable (including the synchronization encodings).
func (k Kind) IsAccess() bool { return k == Read || k.IsWrite() }

// IsWrite reports whether the event kind behaves as a write of its
// variable for the purposes of the causal dependency relation ≺:
// writes proper, lock acquire/release, and the wait/notify dummy
// writes all do (§3.1).
func (k Kind) IsWrite() bool {
	switch k {
	case Write, Acquire, Release, Signal, WaitResume:
		return true
	}
	return false
}

// IsChannel reports whether the event kind is a message-passing
// (channel) event. Channel events are synchronization events with
// their own causality rules (package mvc); they are deliberately not
// writes under ≺, so the shared-variable lattice and race analyses are
// unaffected by their presence.
func (k Kind) IsChannel() bool {
	switch k {
	case ChanSend, ChanRecv, ChanClose, ChanSendClosed, ChanRecvClosed, ChanBlock:
		return true
	}
	return false
}

// Event is one event e_i^k of a multithreaded execution.
type Event struct {
	// Seq is the position of the event in the observed execution M
	// (its global "happens-before" timestamp). It exists so tests and
	// ground-truth tools can reconstruct M; the observer never uses it.
	Seq uint64
	// Thread identifies the generating thread t_i (zero-based).
	Thread int
	// Index is k in e_i^k: the 1-based position of the event among all
	// events of its thread.
	Index uint64
	// Kind is the event type.
	Kind Kind
	// Var is the shared variable accessed, for access events. For
	// Acquire/Release it is the lock's variable name; for
	// Signal/WaitResume the condition's dummy variable name.
	Var string
	// Value is the value written (for writes) or observed (for reads).
	// Relevant write events carry the state update the observer applies.
	Value int64
	// Relevant marks membership in the relevant event set R.
	Relevant bool
	// Slot is the per-channel FIFO position of a channel event (1-based
	// k-th send / k-th receive; sends-at-close for ChanClose). Zero for
	// non-channel events.
	Slot uint64
	// Aux carries auxiliary detail for channel events (the blocked
	// operation and select alternatives of a ChanBlock). Empty for
	// non-channel events.
	Aux string
}

// ID returns a stable identifier for the event within its execution.
func (e Event) ID() string {
	return fmt.Sprintf("e%d@t%d", e.Index, e.Thread)
}

func (e Event) String() string {
	switch {
	case e.Kind == Internal, e.Kind == Spawn:
		return fmt.Sprintf("%s[%s t%d #%d]", e.Kind, e.ID(), e.Thread, e.Seq)
	case e.Kind == Read:
		return fmt.Sprintf("read[%s %s=%d]", e.ID(), e.Var, e.Value)
	case e.Kind == ChanBlock:
		return fmt.Sprintf("%s[%s %s %s]", e.Kind, e.ID(), e.Var, e.Aux)
	case e.Kind.IsChannel():
		return fmt.Sprintf("%s[%s %s#%d=%d]", e.Kind, e.ID(), e.Var, e.Slot, e.Value)
	default:
		return fmt.Sprintf("%s[%s %s:=%d]", e.Kind, e.ID(), e.Var, e.Value)
	}
}

// Message is the observer message <e, i, V> of Algorithm A step 4: a
// relevant event, its generating thread, and the thread's MVC at the
// moment the event was processed. The clock is an immutable Ref, so
// emitting a message shares the tracker's clock instead of cloning it.
type Message struct {
	Event Event
	Clock clock.Ref
}

// Precedes implements Theorem 3 on messages: m ⊲ m' iff m.Clock[i] ≤
// m'.Clock[i] where i is m's thread, for distinct messages.
func (m Message) Precedes(other Message) bool {
	if m.Event.Thread == other.Event.Thread && m.Event.Index == other.Event.Index {
		return false
	}
	return clock.Precedes(m.Clock, m.Event.Thread, other.Clock)
}

// Concurrent reports m || m' (neither precedes the other).
func (m Message) Concurrent(other Message) bool {
	return !m.Precedes(other) && !other.Precedes(m)
}

func (m Message) String() string {
	return fmt.Sprintf("<%s=%d, T%d, %s>", m.Event.Var, m.Event.Value, m.Event.Thread+1, m.Clock)
}

// Package interp executes compiled MTL programs as a deterministic
// stack machine with one yield point per shared-variable access,
// lock operation, wait/notify and skip — the events of §2.1. A
// pluggable scheduler (package sched) chooses which thread performs
// the next event, so the interpreter models the JVM + OS scheduler of
// the paper's setting while remaining fully deterministic and
// replayable; Snapshot/Restore additionally enable exhaustive
// interleaving exploration without re-execution.
//
// Instrumentation attaches through the Hooks interface: the instrument
// package implements Hooks with Algorithm A, exactly as JMPaX's
// instrumentor inserts MVC updates at each shared access (§4.1).
package interp

import (
	"fmt"
	"sort"
	"strings"

	"gompax/internal/logic"
	"gompax/internal/mtl"
)

// Hooks receives one callback per event, in execution order. The
// callbacks correspond one-to-one to the event kinds of the paper
// (§2.1, §3.1).
type Hooks interface {
	Read(tid int, name string, val int64)
	Write(tid int, name string, val int64)
	Acquire(tid int, lock string)
	Release(tid int, lock string)
	Signal(tid int, cond string)
	WaitResume(tid int, cond string)
	Internal(tid int)
	// Spawn reports dynamic creation of thread child by parent (the
	// dynamic-thread extension of §2). Instrumentation must make the
	// child's clock inherit the parent's.
	Spawn(parent, child int)
}

// ChannelHooks is an optional extension of Hooks: implementations
// additionally receive one callback per channel event. Hooks that do
// not implement it simply never see channel events — the machine
// checks with a type assertion, so the §3.1 shared-variable hook
// surface is unchanged.
type ChannelHooks interface {
	// ChanSend reports a completed send of val into ch. capacity is the
	// channel's declared capacity; partner is the receiving thread of
	// an unbuffered rendezvous (the matching ChanRecv follows
	// immediately), -1 for a buffered send.
	ChanSend(tid int, ch string, val int64, capacity int64, partner int)
	// ChanRecv reports a completed receive of val from ch.
	ChanRecv(tid int, ch string, val int64)
	// ChanClose reports closing ch.
	ChanClose(tid int, ch string)
	// ChanSendClosed reports the runtime fault of a send on closed ch;
	// the sending thread halts.
	ChanSendClosed(tid int, ch string, val int64)
	// ChanRecvClosed reports a receive from a closed, drained ch
	// yielding the zero value.
	ChanRecvClosed(tid int, ch string)
	// ChanBlock reports a thread parking on a channel operation with no
	// available partner; aux describes the operation (and, for select,
	// every alternative). Emitted once per park — a completed operation
	// follows as a later event of the same thread if the park resolves.
	ChanBlock(tid int, ch string, aux string)
}

// NopHooks is a Hooks that does nothing (uninstrumented execution).
type NopHooks struct{}

// Read implements Hooks.
func (NopHooks) Read(int, string, int64) {}

// Write implements Hooks.
func (NopHooks) Write(int, string, int64) {}

// Acquire implements Hooks.
func (NopHooks) Acquire(int, string) {}

// Release implements Hooks.
func (NopHooks) Release(int, string) {}

// Signal implements Hooks.
func (NopHooks) Signal(int, string) {}

// WaitResume implements Hooks.
func (NopHooks) WaitResume(int, string) {}

// Internal implements Hooks.
func (NopHooks) Internal(int) {}

// Spawn implements Hooks.
func (NopHooks) Spawn(int, int) {}

// Status describes a thread's scheduling state.
type Status uint8

const (
	// Runnable threads can be stepped.
	Runnable Status = iota
	// BlockedLock threads wait for a mutex.
	BlockedLock
	// BlockedCond threads wait for a notification.
	BlockedCond
	// Done threads have halted.
	Done
	// BlockedSend threads wait to send on a channel (unbuffered with no
	// receiver, or full buffer).
	BlockedSend
	// BlockedRecv threads wait to receive on a channel (unbuffered with
	// no sender, or empty buffer).
	BlockedRecv
	// BlockedSelect threads wait inside a select with no ready case.
	BlockedSelect
)

func (s Status) String() string {
	switch s {
	case Runnable:
		return "runnable"
	case BlockedLock:
		return "blocked(lock)"
	case BlockedCond:
		return "blocked(cond)"
	case BlockedSend:
		return "blocked(send)"
	case BlockedRecv:
		return "blocked(recv)"
	case BlockedSelect:
		return "blocked(select)"
	default:
		return "done"
	}
}

// IsChannelBlocked reports whether the status is one of the
// channel-parked states.
func (s Status) IsChannelBlocked() bool {
	return s == BlockedSend || s == BlockedRecv || s == BlockedSelect
}

// StepKind is the outcome of one Step call.
type StepKind uint8

const (
	// Progressed: the thread executed exactly one event.
	Progressed StepKind = iota
	// Blocked: the thread hit a held lock (or entered a wait) and is no
	// longer runnable; no event was generated.
	Blocked
	// Finished: the thread ran to halt; no event was generated.
	Finished
)

func (k StepKind) String() string {
	switch k {
	case Progressed:
		return "progressed"
	case Blocked:
		return "blocked"
	default:
		return "finished"
	}
}

// MaxSilentSteps bounds the number of non-event instructions a single
// Step may execute, turning silent infinite loops (which cannot exist
// in well-formed MTL, since loop conditions read shared or local state
// — but locals can loop) into errors instead of hangs.
const MaxSilentSteps = 1 << 20

type threadState struct {
	unit      *mtl.ThreadCode // compiled body this thread executes
	name      string          // unit name, with an instance suffix for spawns
	pc        int
	stack     []int64
	locals    []int64
	status    Status
	blockedOn string
	waiting   bool // at an OpWait that has parked but not yet resumed
	parked    bool // a ChanBlock was emitted for the park at this pc
}

// chanState is the runtime state of one declared channel.
type chanState struct {
	cap    int64
	buf    []int64
	closed bool
}

// Machine is a deterministic MTL interpreter.
type Machine struct {
	code    *mtl.Compiled
	shared  map[string]int64
	threads []threadState
	holder  map[string]int        // mutex -> holding thread, -1 if free
	chans   map[string]*chanState // channel -> buffer/closed state
	hooks   Hooks
	chooks  ChannelHooks // hooks, if it implements ChannelHooks
	events  uint64
	spawns  uint64
	faults  []string // channel runtime faults (send on closed)
}

// NewMachine prepares a machine with all threads at their entry
// points and shared variables at their declared initial values.
func NewMachine(code *mtl.Compiled, hooks Hooks) *Machine {
	if hooks == nil {
		hooks = NopHooks{}
	}
	m := &Machine{
		code:   code,
		shared: code.Prog.InitialState(),
		holder: map[string]int{},
		chans:  map[string]*chanState{},
		hooks:  hooks,
	}
	m.chooks, _ = hooks.(ChannelHooks)
	for _, mu := range code.Prog.Mutexes {
		m.holder[mu] = -1
	}
	for _, c := range code.Prog.Chans {
		m.chans[c.Name] = &chanState{cap: c.Cap}
	}
	for i := range code.Threads {
		t := &code.Threads[i]
		m.threads = append(m.threads, threadState{
			unit:   t,
			name:   t.Name,
			locals: make([]int64, len(t.Locals)),
		})
	}
	return m
}

// SetHooks replaces the hooks (e.g. after Restore, to attach a fresh
// tracker for a replay).
func (m *Machine) SetHooks(h Hooks) {
	if h == nil {
		h = NopHooks{}
	}
	m.hooks = h
	m.chooks, _ = h.(ChannelHooks)
}

// Threads returns the number of threads.
func (m *Machine) Threads() int { return len(m.threads) }

// Events returns how many events have executed so far.
func (m *Machine) Events() uint64 { return m.events }

// Shared returns the current value of a shared variable.
func (m *Machine) Shared(name string) (int64, bool) {
	v, ok := m.shared[name]
	return v, ok
}

// SharedState returns a copy of the shared store.
func (m *Machine) SharedState() map[string]int64 {
	out := make(map[string]int64, len(m.shared))
	for k, v := range m.shared {
		out[k] = v
	}
	return out
}

// Status returns a thread's scheduling status.
func (m *Machine) Status(tid int) Status { return m.threads[tid].status }

// Runnable returns the ids of runnable threads in ascending order, in
// a fresh slice.
func (m *Machine) Runnable() []int { return m.AppendRunnable(nil) }

// AppendRunnable appends the ids of runnable threads, in ascending
// order, to dst and returns the extended slice. A run loop passes its
// previous result back as dst[:0] to reuse one buffer across steps.
func (m *Machine) AppendRunnable(dst []int) []int {
	for i := range m.threads {
		if m.threads[i].status == Runnable {
			dst = append(dst, i)
		}
	}
	return dst
}

// Done reports whether every thread has halted.
func (m *Machine) Done() bool {
	for i := range m.threads {
		if m.threads[i].status != Done {
			return false
		}
	}
	return true
}

// Deadlocked reports whether no thread is runnable but some are
// blocked.
func (m *Machine) Deadlocked() bool {
	anyBlocked := false
	for i := range m.threads {
		switch m.threads[i].status {
		case Runnable:
			return false
		case BlockedLock, BlockedCond, BlockedSend, BlockedRecv, BlockedSelect:
			anyBlocked = true
		}
	}
	return anyBlocked
}

// BlockedThreads describes blocked threads for error reporting, e.g.
// "thread 0 blocked(lock) on a".
func (m *Machine) BlockedThreads() []string {
	var out []string
	for i := range m.threads {
		t := &m.threads[i]
		if t.status == BlockedLock || t.status == BlockedCond || t.status.IsChannelBlocked() {
			out = append(out, fmt.Sprintf("%s %s on %s", t.name, t.status, t.blockedOn))
		}
	}
	return out
}

// Snapshot captures the full machine state (excluding hooks).
type Snapshot struct {
	shared  map[string]int64
	threads []threadState
	holder  map[string]int
	chans   map[string]*chanState
	events  uint64
	spawns  uint64
	faults  []string
}

// Snapshot returns a deep copy of the machine state.
func (m *Machine) Snapshot() Snapshot {
	s := Snapshot{
		shared:  make(map[string]int64, len(m.shared)),
		threads: make([]threadState, len(m.threads)),
		holder:  make(map[string]int, len(m.holder)),
		chans:   make(map[string]*chanState, len(m.chans)),
		events:  m.events,
		spawns:  m.spawns,
		faults:  append([]string(nil), m.faults...),
	}
	for k, v := range m.shared {
		s.shared[k] = v
	}
	for k, v := range m.holder {
		s.holder[k] = v
	}
	for k, v := range m.chans {
		c := *v
		c.buf = append([]int64(nil), v.buf...)
		s.chans[k] = &c
	}
	for i, t := range m.threads {
		c := t
		c.stack = append([]int64(nil), t.stack...)
		c.locals = append([]int64(nil), t.locals...)
		s.threads[i] = c
	}
	return s
}

// Restore resets the machine to a snapshot taken from the same
// compiled program.
func (m *Machine) Restore(s Snapshot) {
	m.shared = make(map[string]int64, len(s.shared))
	for k, v := range s.shared {
		m.shared[k] = v
	}
	m.holder = make(map[string]int, len(s.holder))
	for k, v := range s.holder {
		m.holder[k] = v
	}
	m.chans = make(map[string]*chanState, len(s.chans))
	for k, v := range s.chans {
		c := *v
		c.buf = append([]int64(nil), v.buf...)
		m.chans[k] = &c
	}
	m.threads = make([]threadState, len(s.threads))
	for i, t := range s.threads {
		c := t
		c.stack = append([]int64(nil), t.stack...)
		c.locals = append([]int64(nil), t.locals...)
		m.threads[i] = c
	}
	m.events = s.events
	m.spawns = s.spawns
	m.faults = append([]string(nil), s.faults...)
}

// RuntimeError is an MTL execution error with thread and pc context.
type RuntimeError struct {
	Thread string
	PC     int
	Msg    string
}

func (e *RuntimeError) Error() string {
	return fmt.Sprintf("interp: thread %s at pc %d: %s", e.Thread, e.PC, e.Msg)
}

func (m *Machine) fail(tid int, msg string, args ...interface{}) error {
	return &RuntimeError{
		Thread: m.threads[tid].name,
		PC:     m.threads[tid].pc,
		Msg:    fmt.Sprintf(msg, args...),
	}
}

// Step advances thread tid until it executes exactly one event, blocks,
// or halts. Silent (non-event) instructions are executed inline. It is
// an error to step a thread that is not runnable.
func (m *Machine) Step(tid int) (StepKind, error) {
	if tid < 0 || tid >= len(m.threads) {
		return Finished, fmt.Errorf("interp: no thread %d", tid)
	}
	t := &m.threads[tid]
	if t.status != Runnable {
		return Finished, m.fail(tid, "stepped while %s", t.status)
	}
	code := t.unit.Code

	push := func(v int64) { t.stack = append(t.stack, v) }
	pop := func() int64 {
		v := t.stack[len(t.stack)-1]
		t.stack = t.stack[:len(t.stack)-1]
		return v
	}

	for silent := 0; ; silent++ {
		if silent > MaxSilentSteps {
			return Finished, m.fail(tid, "more than %d instructions without an event (silent loop?)", MaxSilentSteps)
		}
		in := code[t.pc]
		switch in.Op {
		case mtl.OpPush:
			push(in.Val)
			t.pc++
		case mtl.OpLoadLocal:
			push(t.locals[in.Idx])
			t.pc++
		case mtl.OpStoreLocal:
			t.locals[in.Idx] = pop()
			t.pc++
		case mtl.OpLoadShared:
			v := m.shared[in.Name]
			push(v)
			t.pc++
			m.events++
			m.hooks.Read(tid, in.Name, v)
			return Progressed, nil
		case mtl.OpStoreShared:
			v := pop()
			m.shared[in.Name] = v
			t.pc++
			m.events++
			m.hooks.Write(tid, in.Name, v)
			return Progressed, nil
		case mtl.OpAdd:
			r, l := pop(), pop()
			push(l + r)
			t.pc++
		case mtl.OpSub:
			r, l := pop(), pop()
			push(l - r)
			t.pc++
		case mtl.OpMul:
			r, l := pop(), pop()
			push(l * r)
			t.pc++
		case mtl.OpDiv:
			r, l := pop(), pop()
			if r == 0 {
				return Finished, m.fail(tid, "division by zero")
			}
			push(l / r)
			t.pc++
		case mtl.OpMod:
			r, l := pop(), pop()
			if r == 0 {
				return Finished, m.fail(tid, "modulus by zero")
			}
			push(l % r)
			t.pc++
		case mtl.OpNeg:
			push(-pop())
			t.pc++
		case mtl.OpCmp:
			r, l := pop(), pop()
			if cmpHolds(in.Cmp, l, r) {
				push(1)
			} else {
				push(0)
			}
			t.pc++
		case mtl.OpNot:
			if pop() == 0 {
				push(1)
			} else {
				push(0)
			}
			t.pc++
		case mtl.OpJump:
			t.pc = in.Target
		case mtl.OpJumpFalse:
			if pop() == 0 {
				t.pc = in.Target
			} else {
				t.pc++
			}
		case mtl.OpLock:
			holder := m.holder[in.Name]
			if holder == tid {
				return Finished, m.fail(tid, "mutex %s already held by this thread", in.Name)
			}
			if holder >= 0 {
				t.status = BlockedLock
				t.blockedOn = in.Name
				return Blocked, nil
			}
			m.holder[in.Name] = tid
			t.pc++
			m.events++
			m.hooks.Acquire(tid, in.Name)
			return Progressed, nil
		case mtl.OpUnlock:
			if m.holder[in.Name] != tid {
				return Finished, m.fail(tid, "unlock of mutex %s not held by this thread", in.Name)
			}
			m.holder[in.Name] = -1
			// Wake every thread parked on this mutex; they re-attempt
			// the acquisition when next scheduled, so the scheduler
			// decides who wins — as in a real runtime.
			for i := range m.threads {
				w := &m.threads[i]
				if w.status == BlockedLock && w.blockedOn == in.Name {
					w.status = Runnable
					w.blockedOn = ""
				}
			}
			t.pc++
			m.events++
			m.hooks.Release(tid, in.Name)
			return Progressed, nil
		case mtl.OpWait:
			if !t.waiting {
				t.waiting = true
				t.status = BlockedCond
				t.blockedOn = in.Name
				return Blocked, nil
			}
			// Resumed after a notification: emit the dummy write of
			// §3.1 and move on.
			t.waiting = false
			t.pc++
			m.events++
			m.hooks.WaitResume(tid, in.Name)
			return Progressed, nil
		case mtl.OpNotify:
			for i := range m.threads {
				w := &m.threads[i]
				if w.status == BlockedCond && w.blockedOn == in.Name {
					w.status = Runnable
					w.blockedOn = ""
					break
				}
			}
			t.pc++
			m.events++
			m.hooks.Signal(tid, in.Name)
			return Progressed, nil
		case mtl.OpNotifyAll:
			for i := range m.threads {
				w := &m.threads[i]
				if w.status == BlockedCond && w.blockedOn == in.Name {
					w.status = Runnable
					w.blockedOn = ""
				}
			}
			t.pc++
			m.events++
			m.hooks.Signal(tid, in.Name)
			return Progressed, nil
		case mtl.OpSpawn:
			idx, ok := m.code.TaskIndex[in.Name]
			if !ok {
				return Finished, m.fail(tid, "spawn of unknown task %s", in.Name)
			}
			unit := &m.code.Tasks[idx]
			child := len(m.threads)
			m.spawns++
			m.threads = append(m.threads, threadState{
				unit:   unit,
				name:   fmt.Sprintf("%s#%d", unit.Name, m.spawns),
				locals: make([]int64, len(unit.Locals)),
			})
			// The append may have moved the backing array; refresh t.
			t = &m.threads[tid]
			t.pc++
			m.events++
			m.hooks.Spawn(tid, child)
			return Progressed, nil
		case mtl.OpSkip:
			t.pc++
			m.events++
			m.hooks.Internal(tid)
			return Progressed, nil
		case mtl.OpPop:
			pop()
			t.pc++
		case mtl.OpSend:
			return m.stepSend(tid, in)
		case mtl.OpRecv:
			return m.stepRecv(tid, in)
		case mtl.OpClose:
			return m.stepClose(tid, in)
		case mtl.OpSelect:
			return m.stepSelect(tid, in)
		case mtl.OpHalt:
			t.status = Done
			if m.holder != nil {
				for name, h := range m.holder {
					if h == tid {
						return Finished, m.fail(tid, "halted while holding mutex %s", name)
					}
				}
			}
			return Finished, nil
		default:
			return Finished, m.fail(tid, "unknown opcode %v", in.Op)
		}
	}
}

// cmpHolds evaluates a comparison on two already-loaded operands (the
// instrumented reads happened at the OpLoadShared instructions).
func cmpHolds(op logic.CmpOp, l, r int64) bool {
	switch op {
	case logic.EQ:
		return l == r
	case logic.NE:
		return l != r
	case logic.LT:
		return l < r
	case logic.LE:
		return l <= r
	case logic.GT:
		return l > r
	case logic.GE:
		return l >= r
	}
	return false
}

// LockHolder returns the thread currently holding the mutex, or -1.
func (m *Machine) LockHolder(name string) int {
	h, ok := m.holder[name]
	if !ok {
		return -1
	}
	return h
}

// ThreadName returns the display name of a thread (task instances get
// an instance suffix, e.g. "worker#2").
func (m *Machine) ThreadName(tid int) string { return m.threads[tid].name }

// Locals returns a copy of a thread's local variables, keyed by name,
// for tests and debugging.
func (m *Machine) Locals(tid int) map[string]int64 {
	names := m.threads[tid].unit.Locals
	out := make(map[string]int64, len(names))
	for i, n := range names {
		out[n] = m.threads[tid].locals[i]
	}
	return out
}

// Mutexes returns the declared mutex names, sorted.
func (m *Machine) Mutexes() []string {
	out := make([]string, 0, len(m.holder))
	for k := range m.holder {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// StateKey returns a canonical string identifying the complete machine
// state (shared store, lock holders, and every thread's control state).
// Two machines of the same program with equal keys behave identically
// under identical future schedules; search-based tools (replay
// synthesis, exploration) use it to prune revisited states — spin
// loops, in particular, revisit the same state every iteration.
func (m *Machine) StateKey() string {
	var b strings.Builder
	names := make([]string, 0, len(m.shared))
	for k := range m.shared {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(&b, "%s=%d;", k, m.shared[k])
	}
	locks := make([]string, 0, len(m.holder))
	for k := range m.holder {
		locks = append(locks, k)
	}
	sort.Strings(locks)
	for _, k := range locks {
		fmt.Fprintf(&b, "%s@%d;", k, m.holder[k])
	}
	chans := make([]string, 0, len(m.chans))
	for k := range m.chans {
		chans = append(chans, k)
	}
	sort.Strings(chans)
	for _, k := range chans {
		c := m.chans[k]
		fmt.Fprintf(&b, "%s!%v", k, c.closed)
		for _, v := range c.buf {
			fmt.Fprintf(&b, ",%d", v)
		}
		b.WriteByte(';')
	}
	for i := range m.threads {
		t := &m.threads[i]
		fmt.Fprintf(&b, "|%d:%d:%d:%s:%v:%v", i, t.pc, t.status, t.blockedOn, t.waiting, t.parked)
		for _, v := range t.stack {
			fmt.Fprintf(&b, ",%d", v)
		}
		b.WriteByte('/')
		for _, v := range t.locals {
			fmt.Fprintf(&b, ",%d", v)
		}
	}
	return b.String()
}

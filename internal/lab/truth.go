package lab

import (
	"errors"
	"fmt"
	"sort"

	"gompax/internal/driver"
	"gompax/internal/instrument"
	"gompax/internal/interp"
	"gompax/internal/logic"
	"gompax/internal/monitor"
	"gompax/internal/msg"
	"gompax/internal/mtl"
	"gompax/internal/mvc"
	"gompax/internal/sched"
)

// Truth is the exhaustive-scheduler ground truth of one scenario — the
// measurement capability the paper's JMPaX evaluation lacked. It is
// always computed from full traces: a chaos scenario's lost events
// degrade its *predictions*, never its truth (degraded runs are scored
// against full-trace truth).
type Truth struct {
	// Interleavings is the number of maximal interleavings explored.
	Interleavings int `json:"interleavings"`
	// Complete is true when exploration exhausted every interleaving
	// within the budget. Scenario grids shipped by this package are
	// sized to always be complete; incomplete truth still lower-bounds
	// the violating/racy labels but cannot certify a scenario clean.
	Complete bool `json:"complete"`
	// Declared is true when the truth was not enumerated but declared
	// analytically by the scenario's constructor (deep classes, whose
	// thread counts put exhaustive enumeration out of reach; the
	// templates are built so the labels are exactly known). Declared
	// truth is never Complete: the truth-complete gate counts only
	// enumerated scenarios.
	Declared bool `json:"declared,omitempty"`
	// Violating is true when at least one interleaving violates the
	// property per the single-trace checker.
	Violating bool `json:"violating"`
	// ViolatingRuns counts the violating interleavings — the
	// denominator of the paper's "probability of detection by ordinary
	// testing" anecdote, now measured.
	ViolatingRuns int `json:"violating_runs"`
	// RaceKeys is the sorted union, over every interleaving, of
	// conflicting access pairs left unordered by the
	// synchronization-only happens-before closure, keyed by
	// (variable, thread/kind, thread/kind).
	RaceKeys []string `json:"race_keys"`
	// Deadlocks counts interleavings that ended deadlocked.
	Deadlocks int `json:"deadlocks"`
	// MsgKeys is the sorted union, over every interleaving, of the
	// message-passing outcomes that actually happened in it, as
	// "kind|channel" keys matching msg.Report.Keys(): an executed
	// send-on-closed fault, a channel ending the run with undelivered
	// buffered values, or a thread still parked on a channel operation
	// at the end. This is observational ground truth — a predicted
	// finding is correct exactly when some interleaving realizes it.
	MsgKeys []string `json:"msg_keys"`
}

// TruthOptions bounds the exploration.
type TruthOptions struct {
	// MaxInterleavings aborts enumeration beyond this many maximal
	// interleavings (0 = 200000). Hitting the bound clears Complete.
	MaxInterleavings int
	// MaxEvents bounds each interleaving (0 = 100000).
	MaxEvents uint64
}

func (o TruthOptions) defaults() TruthOptions {
	if o.MaxInterleavings <= 0 {
		o.MaxInterleavings = 200_000
	}
	if o.MaxEvents == 0 {
		o.MaxEvents = 100_000
	}
	return o
}

// compiled is a scenario's parsed and compiled form, shared between
// the truth computation and the pipeline runs.
type compiled struct {
	prog    *mtl.Program
	code    *mtl.Compiled
	formula logic.Formula
	mprog   *monitor.Program
	policy  mvc.Policy
	initial logic.State
}

func compileScenario(sc Scenario) (*compiled, error) {
	prog, err := mtl.Parse(sc.Source)
	if err != nil {
		return nil, fmt.Errorf("lab: %s: parse: %w", sc.Name, err)
	}
	code, err := mtl.Compile(prog)
	if err != nil {
		return nil, fmt.Errorf("lab: %s: compile: %w", sc.Name, err)
	}
	formula, err := logic.ParseFormula(sc.Property)
	if err != nil {
		return nil, fmt.Errorf("lab: %s: property: %w", sc.Name, err)
	}
	mprog, err := monitor.Compile(formula)
	if err != nil {
		return nil, fmt.Errorf("lab: %s: monitor: %w", sc.Name, err)
	}
	initial, err := instrument.InitialState(prog, formula)
	if err != nil {
		return nil, fmt.Errorf("lab: %s: %w", sc.Name, err)
	}
	return &compiled{
		prog:    prog,
		code:    code,
		formula: formula,
		mprog:   mprog,
		policy:  instrument.PolicyFor(formula),
		initial: initial,
	}, nil
}

// tee fans one hook stream out to several consumers, so a single
// replayed execution can feed the property instrumentor and the race
// ground-truth recorder at once.
type tee []interp.Hooks

func (t tee) Read(tid int, name string, v int64) {
	for _, h := range t {
		h.Read(tid, name, v)
	}
}
func (t tee) Write(tid int, name string, v int64) {
	for _, h := range t {
		h.Write(tid, name, v)
	}
}
func (t tee) Acquire(tid int, l string) {
	for _, h := range t {
		h.Acquire(tid, l)
	}
}
func (t tee) Release(tid int, l string) {
	for _, h := range t {
		h.Release(tid, l)
	}
}
func (t tee) Signal(tid int, c string) {
	for _, h := range t {
		h.Signal(tid, c)
	}
}
func (t tee) WaitResume(tid int, c string) {
	for _, h := range t {
		h.WaitResume(tid, c)
	}
}
func (t tee) Internal(tid int) {
	for _, h := range t {
		h.Internal(tid)
	}
}
func (t tee) Spawn(parent, child int) {
	for _, h := range t {
		h.Spawn(parent, child)
	}
}

// The tee also implements the optional ChannelHooks extension,
// forwarding to the members that do. The machine discovers channel
// support with one type assertion on its top-level hooks, so without
// this no consumer behind a tee would ever see a channel event.
func (t tee) eachChan(f func(interp.ChannelHooks)) {
	for _, h := range t {
		if ch, ok := h.(interp.ChannelHooks); ok {
			f(ch)
		}
	}
}

func (t tee) ChanSend(tid int, ch string, val, capacity int64, partner int) {
	t.eachChan(func(h interp.ChannelHooks) { h.ChanSend(tid, ch, val, capacity, partner) })
}
func (t tee) ChanRecv(tid int, ch string, val int64) {
	t.eachChan(func(h interp.ChannelHooks) { h.ChanRecv(tid, ch, val) })
}
func (t tee) ChanClose(tid int, ch string) {
	t.eachChan(func(h interp.ChannelHooks) { h.ChanClose(tid, ch) })
}
func (t tee) ChanSendClosed(tid int, ch string, val int64) {
	t.eachChan(func(h interp.ChannelHooks) { h.ChanSendClosed(tid, ch, val) })
}
func (t tee) ChanRecvClosed(tid int, ch string) {
	t.eachChan(func(h interp.ChannelHooks) { h.ChanRecvClosed(tid, ch) })
}
func (t tee) ChanBlock(tid int, ch string, aux string) {
	t.eachChan(func(h interp.ChannelHooks) { h.ChanBlock(tid, ch, aux) })
}

var _ interp.Hooks = tee(nil)
var _ interp.ChannelHooks = tee(nil)

// hbKind classifies recorded events for the independent happens-before
// ground truth (it shares no code with the vector clocks it judges).
type hbKind uint8

const (
	hbRead hbKind = iota
	hbWrite
	hbSync
	hbOther
)

// hbEvent is one event of a concrete execution in observed order.
type hbEvent struct {
	thread int
	name   string
	kind   hbKind
	child  int
}

// hbRecorder captures the execution for the closure ground truth.
type hbRecorder struct{ events []hbEvent }

func (r *hbRecorder) add(tid int, name string, kind hbKind, child int) {
	r.events = append(r.events, hbEvent{thread: tid, name: name, kind: kind, child: child})
}

func (r *hbRecorder) Read(tid int, name string, _ int64)  { r.add(tid, name, hbRead, -1) }
func (r *hbRecorder) Write(tid int, name string, _ int64) { r.add(tid, name, hbWrite, -1) }
func (r *hbRecorder) Acquire(tid int, l string)           { r.add(tid, l, hbSync, -1) }
func (r *hbRecorder) Release(tid int, l string)           { r.add(tid, l, hbSync, -1) }
func (r *hbRecorder) Signal(tid int, c string)            { r.add(tid, c, hbSync, -1) }
func (r *hbRecorder) WaitResume(tid int, c string)        { r.add(tid, c, hbSync, -1) }
func (r *hbRecorder) Internal(tid int)                    { r.add(tid, "", hbOther, -1) }
func (r *hbRecorder) Spawn(parent, child int)             { r.add(parent, "", hbOther, child) }

// Channel events mirror the race detector's channel-as-lock encoding:
// every completed operation on a channel synchronizes on the channel's
// name (their total order contributes happens-before edges), while a
// park establishes no order on its own.
func (r *hbRecorder) ChanSend(tid int, ch string, _, _ int64, _ int) { r.add(tid, ch, hbSync, -1) }
func (r *hbRecorder) ChanRecv(tid int, ch string, _ int64)           { r.add(tid, ch, hbSync, -1) }
func (r *hbRecorder) ChanClose(tid int, ch string)                   { r.add(tid, ch, hbSync, -1) }
func (r *hbRecorder) ChanSendClosed(tid int, ch string, _ int64)     { r.add(tid, ch, hbSync, -1) }
func (r *hbRecorder) ChanRecvClosed(tid int, ch string)              { r.add(tid, ch, hbSync, -1) }
func (r *hbRecorder) ChanBlock(tid int, _ string, _ string)          { r.add(tid, "", hbOther, -1) }

var _ interp.Hooks = (*hbRecorder)(nil)
var _ interp.ChannelHooks = (*hbRecorder)(nil)

// chanOutcomes records what actually happened to every channel of one
// concrete execution, from first principles (it shares no code with
// internal/msg, whose predictions it is the ground truth for). At the
// end of the run, keys() projects the outcomes onto the same
// "kind|channel" keys msg.Report.Keys() emits.
type chanOutcomes struct {
	sends   map[string]int  // completed value-carrying sends per channel
	recvs   map[string]int  // completed value-carrying receives per channel
	faulted map[string]bool // channels with an executed send-on-closed
	parked  map[int]string  // thread -> channel of its unresolved park
}

func newChanOutcomes() *chanOutcomes {
	return &chanOutcomes{
		sends:   map[string]int{},
		recvs:   map[string]int{},
		faulted: map[string]bool{},
		parked:  map[int]string{},
	}
}

func (c *chanOutcomes) Read(int, string, int64)  {}
func (c *chanOutcomes) Write(int, string, int64) {}
func (c *chanOutcomes) Acquire(int, string)      {}
func (c *chanOutcomes) Release(int, string)      {}
func (c *chanOutcomes) Signal(int, string)       {}
func (c *chanOutcomes) WaitResume(int, string)   {}
func (c *chanOutcomes) Internal(int)             {}
func (c *chanOutcomes) Spawn(int, int)           {}

// A completed operation of a thread resolves its pending park (a
// resumed park always completes as a later event of the same thread);
// a park that is never followed by one is still standing at the end.
func (c *chanOutcomes) ChanSend(tid int, ch string, _, _ int64, _ int) {
	c.sends[ch]++
	delete(c.parked, tid)
}
func (c *chanOutcomes) ChanRecv(tid int, ch string, _ int64) {
	c.recvs[ch]++
	delete(c.parked, tid)
}
func (c *chanOutcomes) ChanClose(tid int, ch string) { delete(c.parked, tid) }
func (c *chanOutcomes) ChanSendClosed(tid int, ch string, _ int64) {
	c.faulted[ch] = true
	delete(c.parked, tid) // the thread halts on the fault, it is not parked
}
func (c *chanOutcomes) ChanRecvClosed(tid int, ch string)      { delete(c.parked, tid) }
func (c *chanOutcomes) ChanBlock(tid int, ch string, _ string) { c.parked[tid] = ch }

// keys folds the run's outcomes into the truth set: executed faults,
// channels ending with more sends than receives (values no receiver
// ever took), and threads still parked when the run ended.
func (c *chanOutcomes) keys(into map[string]bool) {
	for ch := range c.faulted {
		into[string(msg.SendOnClosed)+"|"+ch] = true
	}
	for ch, n := range c.sends {
		if n > c.recvs[ch] {
			into[string(msg.LostMessage)+"|"+ch] = true
		}
	}
	for _, ch := range c.parked {
		into[string(msg.PartialDeadlock)+"|"+ch] = true
	}
}

var _ interp.Hooks = (*chanOutcomes)(nil)
var _ interp.ChannelHooks = (*chanOutcomes)(nil)

// PairKey canonically names a conflicting access pair: variable plus
// each side's (thread, is-write), order-normalized. Ground truth and
// predictions meet on these keys.
func PairKey(name string, t1 int, w1 bool, t2 int, w2 bool) string {
	a := fmt.Sprintf("%d/%v", t1, w1)
	b := fmt.Sprintf("%d/%v", t2, w2)
	if a > b {
		a, b = b, a
	}
	return name + "|" + a + "|" + b
}

// closureRaceKeys computes the synchronization-only happens-before
// relation of one recorded execution from first principles — program
// order, the total order over each synchronization variable's
// operations, spawn edges, transitively closed — and returns the keys
// of conflicting data-access pairs it leaves unordered.
func closureRaceKeys(events []hbEvent, into map[string]bool) {
	n := len(events)
	hb := make([][]bool, n)
	for i := range hb {
		hb[i] = make([]bool, n)
	}
	lastOfThread := map[int]int{}
	lastOfSync := map[string]int{}
	pendingSpawn := map[int]int{}
	for i, e := range events {
		if prev, ok := lastOfThread[e.thread]; ok {
			hb[prev][i] = true
		} else if s, ok := pendingSpawn[e.thread]; ok {
			hb[s][i] = true
		}
		lastOfThread[e.thread] = i
		if e.kind == hbSync {
			if prev, ok := lastOfSync[e.name]; ok {
				hb[prev][i] = true
			}
			lastOfSync[e.name] = i
		}
		if e.child >= 0 {
			pendingSpawn[e.child] = i
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if !hb[i][k] {
				continue
			}
			for j := 0; j < n; j++ {
				if hb[k][j] {
					hb[i][j] = true
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		a := events[i]
		if a.kind != hbRead && a.kind != hbWrite {
			continue
		}
		for j := i + 1; j < n; j++ {
			b := events[j]
			if b.kind != hbRead && b.kind != hbWrite {
				continue
			}
			if a.name != b.name || a.thread == b.thread {
				continue
			}
			if a.kind != hbWrite && b.kind != hbWrite {
				continue
			}
			if hb[i][j] || hb[j][i] {
				continue
			}
			into[PairKey(a.name, a.thread, a.kind == hbWrite, b.thread, b.kind == hbWrite)] = true
		}
	}
}

// ComputeTruth enumerates every maximal interleaving of the scenario's
// program with the exhaustive scheduler, replays each with full
// instrumentation, and aggregates the violation and race ground truth.
func ComputeTruth(sc Scenario, opts TruthOptions) (Truth, error) {
	c, err := compileScenario(sc)
	if err != nil {
		return Truth{}, err
	}
	return computeTruth(c, opts)
}

func computeTruth(c *compiled, opts TruthOptions) (Truth, error) {
	opts = opts.defaults()
	var schedules [][]int
	m := interp.NewMachine(c.code, nil)
	n, err := sched.Explore(m, opts.MaxInterleavings, opts.MaxEvents, func(r sched.ExploreResult) bool {
		schedules = append(schedules, r.Schedule)
		return true
	})
	if err != nil {
		return Truth{}, fmt.Errorf("lab: explore: %w", err)
	}
	truth := Truth{
		Interleavings: n,
		Complete:      n < opts.MaxInterleavings,
	}
	raceKeys := map[string]bool{}
	msgKeys := map[string]bool{}
	for _, schedule := range schedules {
		col := &mvc.Collector{}
		in := instrument.New(len(c.code.Threads), c.policy, col)
		rec := &hbRecorder{}
		chn := newChanOutcomes()
		mm := interp.NewMachine(c.code, tee{in, rec, chn})
		_, err := sched.Run(mm, &sched.Scripted{Seq: schedule}, opts.MaxEvents)
		var dl *sched.DeadlockError
		if errors.As(err, &dl) {
			// A deadlocked interleaving is still a maximal behavior: its
			// emitted prefix is checked like any other.
			truth.Deadlocks++
		} else if err != nil {
			return truth, fmt.Errorf("lab: replay: %w", err)
		}
		states := driver.StatesOf(c.initial, col.Messages)
		idx, err := monitor.CheckTrace(c.mprog, states)
		if err != nil {
			return truth, fmt.Errorf("lab: check: %w", err)
		}
		if idx >= 0 {
			truth.Violating = true
			truth.ViolatingRuns++
		}
		closureRaceKeys(rec.events, raceKeys)
		chn.keys(msgKeys)
	}
	truth.RaceKeys = sortedKeys(raceKeys)
	truth.MsgKeys = sortedKeys(msgKeys)
	return truth, nil
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Package race implements predictive data race detection, the flagship
// application of the paper's technique in follow-on work (jPredictor,
// RV-Predict). The paper's causality ≺ orders *every* conflicting
// access, so under ≺ races are invisible by construction; the race
// detector instead uses the *synchronization-only* causality: program
// order plus the lock/condition operations of §3.1 (which remain
// writes of their shared variable), while ordinary data accesses do
// not induce cross-thread edges. Two accesses to the same data
// variable, at least one a write, whose MVCs are concurrent under this
// weaker order, can be adjacent in some consistent run — a predicted
// data race — even if the observed execution happened to order them.
//
// The Detector implements interp.Hooks, so it attaches to the MTL
// interpreter exactly like the property instrumentation does.
package race

import (
	"fmt"
	"sort"

	"gompax/internal/clock"
	"gompax/internal/interp"
)

// Access is one data-variable access with its sync-only vector clock.
type Access struct {
	Thread int
	Var    string
	Write  bool
	Clock  clock.Ref
	Seq    uint64 // position in the observed execution
}

func (a Access) String() string {
	kind := "read"
	if a.Write {
		kind = "write"
	}
	return fmt.Sprintf("%s of %s by thread %d at %v", kind, a.Var, a.Thread, a.Clock)
}

// Report is one predicted race: two concurrent conflicting accesses.
type Report struct {
	Var  string
	A, B Access
}

func (r Report) String() string {
	return fmt.Sprintf("race on %s: %s || %s", r.Var, r.A, r.B)
}

type syncClocks struct {
	access clock.Ref
	write  clock.Ref
}

// Detector accumulates accesses and predicts races online. Clocks are
// immutable values, so recording an access shares the thread's current
// clock node instead of cloning it, and the pairwise concurrency
// checks shortcut over the chunks two clocks share.
type Detector struct {
	clocks   []clock.Ref // per-thread sync-only MVCs
	syncVars map[string]*syncClocks
	accesses map[string][]Access
	races    []Report
	seen     map[string]bool
	seq      uint64
	// MaxAccessesPerVar bounds memory for long executions; older
	// accesses beyond the bound are dropped (races against them are no
	// longer predicted). Zero means unlimited.
	MaxAccessesPerVar int
}

// NewDetector creates a detector for the given number of threads.
func NewDetector(threads int) *Detector {
	return &Detector{
		clocks:   make([]clock.Ref, threads),
		syncVars: map[string]*syncClocks{},
		accesses: map[string][]Access{},
		seen:     map[string]bool{},
	}
}

// Races returns the predicted races in detection order.
func (d *Detector) Races() []Report { return d.races }

// Accesses returns every recorded data access in observation order
// (Seq ascending), suitable for shipping over the wire and replaying
// through PredictRaces on the observer side.
func (d *Detector) Accesses() []Access {
	var out []Access
	for _, list := range d.accesses {
		out = append(out, list...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// PredictRaces runs the pairwise concurrency check over an arbitrary
// set of accesses — in particular a *subset* of an execution's
// accesses, as survives a lossy wire session. Losing accesses can only
// lose races, never invent them: the check is per-pair, so every
// report returned from a subset is also found on the full set.
func PredictRaces(accesses []Access) []Report {
	byVar := map[string][]Access{}
	order := []string{}
	for _, a := range accesses {
		if _, ok := byVar[a.Var]; !ok {
			order = append(order, a.Var)
		}
		byVar[a.Var] = append(byVar[a.Var], a)
	}
	sort.Strings(order)
	var races []Report
	seen := map[string]bool{}
	for _, name := range order {
		list := byVar[name]
		sort.Slice(list, func(i, j int) bool { return list[i].Seq < list[j].Seq })
		for i, a := range list {
			for _, b := range list[i+1:] {
				if a.Thread == b.Thread || (!a.Write && !b.Write) {
					continue
				}
				if clock.Concurrent(a.Clock, b.Clock) {
					key := raceKey(name, a, b)
					if !seen[key] {
						seen[key] = true
						races = append(races, Report{Var: name, A: a, B: b})
					}
				}
			}
		}
	}
	return races
}

// RacyVars returns the sorted set of variables with predicted races.
func (d *Detector) RacyVars() []string {
	set := map[string]bool{}
	for _, r := range d.races {
		set[r.Var] = true
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// tick advances a thread's clock for a new event of its own.
func (d *Detector) tick(tid int) {
	d.seq++
	d.clocks[tid] = clock.Tick(d.clocks[tid], tid)
}

// syncWrite applies the paper's lock encoding (§3.1): a write of the
// synchronization variable, totally ordering all operations on it.
func (d *Detector) syncWrite(tid int, name string) {
	d.tick(tid)
	c := d.syncVars[name]
	if c == nil {
		c = &syncClocks{}
		d.syncVars[name] = c
	}
	vi := clock.Join(d.clocks[tid], c.access)
	d.clocks[tid] = vi
	c.access = vi
	c.write = vi
}

// dataAccess records an access and checks it against prior conflicting
// accesses of the same variable.
func (d *Detector) dataAccess(tid int, name string, write bool) {
	d.tick(tid)
	a := Access{Thread: tid, Var: name, Write: write, Clock: d.clocks[tid], Seq: d.seq}
	for _, prev := range d.accesses[name] {
		if prev.Thread == tid {
			continue // program order
		}
		if !prev.Write && !write {
			continue // read-read never races
		}
		if clock.Concurrent(prev.Clock, a.Clock) {
			key := raceKey(name, prev, a)
			if !d.seen[key] {
				d.seen[key] = true
				d.races = append(d.races, Report{Var: name, A: prev, B: a})
			}
		}
	}
	list := append(d.accesses[name], a)
	if d.MaxAccessesPerVar > 0 && len(list) > d.MaxAccessesPerVar {
		list = list[len(list)-d.MaxAccessesPerVar:]
	}
	d.accesses[name] = list
}

func raceKey(name string, a, b Access) string {
	t1, t2 := a.Thread, b.Thread
	w1, w2 := a.Write, b.Write
	if t1 > t2 {
		t1, t2 = t2, t1
		w1, w2 = w2, w1
	}
	return fmt.Sprintf("%s|%d/%v|%d/%v", name, t1, w1, t2, w2)
}

// Read implements interp.Hooks.
func (d *Detector) Read(tid int, name string, _ int64) { d.dataAccess(tid, name, false) }

// Write implements interp.Hooks.
func (d *Detector) Write(tid int, name string, _ int64) { d.dataAccess(tid, name, true) }

// Acquire implements interp.Hooks.
func (d *Detector) Acquire(tid int, lock string) { d.syncWrite(tid, lock) }

// Release implements interp.Hooks.
func (d *Detector) Release(tid int, lock string) { d.syncWrite(tid, lock) }

// Signal implements interp.Hooks.
func (d *Detector) Signal(tid int, cond string) { d.syncWrite(tid, cond) }

// WaitResume implements interp.Hooks.
func (d *Detector) WaitResume(tid int, cond string) { d.syncWrite(tid, cond) }

// Internal implements interp.Hooks.
func (d *Detector) Internal(tid int) { d.tick(tid) }

// Spawn implements interp.Hooks: the child's sync-only clock inherits
// the parent's, ordering everything the parent did before the spawn
// before everything the child does. The child's clock is the parent's
// node — pure handle sharing, no copy.
func (d *Detector) Spawn(parent, child int) {
	d.tick(parent)
	for len(d.clocks) <= child {
		d.clocks = append(d.clocks, clock.Ref{})
	}
	d.clocks[child] = d.clocks[parent]
}

// Channel operations are synchronization: the detector treats every
// completed operation on a channel as a write of the channel's own
// sync variable, totally ordering all operations on that channel. This
// is deliberately coarser than the two-phase rules of package mvc — a
// channel in the sync-only causality behaves like a lock — which keeps
// the detector's predictions a subset of what the exhaustive scheduler
// can realize (the lab's ground-truth recorder applies the identical
// encoding).

// ChanSend implements interp.ChannelHooks.
func (d *Detector) ChanSend(tid int, ch string, _ int64, _ int64, _ int) { d.syncWrite(tid, ch) }

// ChanRecv implements interp.ChannelHooks.
func (d *Detector) ChanRecv(tid int, ch string, _ int64) { d.syncWrite(tid, ch) }

// ChanClose implements interp.ChannelHooks.
func (d *Detector) ChanClose(tid int, ch string) { d.syncWrite(tid, ch) }

// ChanSendClosed implements interp.ChannelHooks.
func (d *Detector) ChanSendClosed(tid int, ch string, _ int64) { d.syncWrite(tid, ch) }

// ChanRecvClosed implements interp.ChannelHooks.
func (d *Detector) ChanRecvClosed(tid int, ch string) { d.syncWrite(tid, ch) }

// ChanBlock implements interp.ChannelHooks: a park establishes no
// cross-thread edge.
func (d *Detector) ChanBlock(tid int, ch string, _ string) { d.tick(tid) }

var (
	_ interp.Hooks        = (*Detector)(nil)
	_ interp.ChannelHooks = (*Detector)(nil)
)

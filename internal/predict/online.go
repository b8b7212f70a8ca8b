package predict

import (
	"fmt"
	"slices"

	"gompax/internal/clock"
	"gompax/internal/event"
	"gompax/internal/lattice"
	"gompax/internal/logic"
	"gompax/internal/monitor"
)

// Online is the incremental analyzer of §4: "one can buffer [events]
// at the observer's side and then build the lattice on a level-by-level
// basis in a top-down manner, as the events become available", with
// the analysis performed in parallel and earlier levels garbage
// collected.
//
// Messages may arrive in any order; each is buffered until its
// per-thread predecessors are present (the message's own clock
// component gives its position). The frontier advances one full level
// at a time, as soon as every event the level could need is either
// delivered or ruled out by a thread-completion notice. Violations are
// reported as soon as the level containing them is analyzed. Analyze
// runs a fully delivered session through the same level driver.
type Online struct {
	prog    *monitor.Program
	initial logic.State
	threads int
	opts    Options
	// atoms are the formula's atoms compiled to slot reads over the
	// session's variable order, the initial state's Vars: a cut's
	// state is a vector of values by slot in that order.
	atoms monitor.SlotAtoms

	events    [][]smsg          // contiguous prefixes per thread
	pending   []map[uint64]smsg // buffered out-of-order messages
	final     []bool            // thread will send no more deliverable messages
	announced []bool            // thread-done notice received
	applied   int               // events consumed into the frontier

	// frontier is the last sealed level, in creation order (each
	// entry's keys list its reachable monitor states, each with one
	// representative path, nil unless Counterexamples was set).
	frontier []*pentry
	// scratch is the inline level step's monitor, restored to a pair's
	// pre-step state on each transition memo miss.
	scratch *monitor.Monitor
	// memo is the level's transition memo, cleared at every level
	// barrier; cuts is the level step's reused pointer buffer, emptied
	// after each use. pslab and vslab are the unused tails of the slabs
	// new cuts and their value vectors are carved from. Close releases
	// all four.
	memo   map[memoKey]transition
	cuts   []*pentry
	pslab  []pentry
	vslab  []int64
	result Result
	closed bool
	ls     levelSpans
}

// smsg is a delivered message and its slot: the position, in the
// session's variable order, of the variable it writes, or -1 for a
// state-neutral event, which occupies a lattice position (it ticks its
// thread's clock) but changes no cut's state. A channel event is
// state-neutral, since its Var is a channel name, not a shared
// variable; so is a write of a variable the initial state does not
// bind, since no atom reads one (the root evaluates every atom over
// the initial state, so a formula naming such a variable fails
// NewOnline).
type smsg struct {
	event.Message
	slot int
}

// NewOnline starts an online analysis session. The root monitor is
// stepped on the initial state immediately, so a property violated by
// the initial state is reported before any event arrives.
func NewOnline(prog *monitor.Program, initial logic.State, threads int, opts Options) (*Online, error) {
	if threads <= 0 {
		return nil, fmt.Errorf("predict: online analysis needs a positive thread count")
	}
	// The stream length is unknown up front; seed a level capacity that
	// covers most sessions and let append double beyond it.
	return newOnline(prog, initial, threads, opts, "online", 64)
}

// newOnline builds the session state shared by NewOnline and Analyze:
// mode labels the analyses counter, and levels is the LevelWidths
// capacity to reserve.
func newOnline(prog *monitor.Program, initial logic.State, threads int, opts Options, mode string, levels int) (*Online, error) {
	o := &Online{
		prog:      prog,
		initial:   initial,
		threads:   threads,
		opts:      opts,
		atoms:     prog.CompileSlots(initial.Vars()),
		events:    make([][]smsg, threads),
		pending:   make([]map[uint64]smsg, threads),
		final:     make([]bool, threads),
		announced: make([]bool, threads),
		ls:        newLevelSpans(opts.Span),
	}
	for i := range o.pending {
		o.pending[i] = map[uint64]smsg{}
	}
	mAnalyses.With(mode).Inc()
	vals := initial.Values()
	bits, err := o.atoms.Bits(vals)
	if err != nil {
		return nil, err
	}
	m := prog.NewMonitor()
	verdict := m.StepBits(bits)
	o.result.Stats = Stats{Cuts: 1, Pairs: 1, Levels: 1, MaxWidth: 1, MaxPairWidth: 1, LevelWidths: []int{1}}
	o.result.Stats.reserveLevels(levels)
	flushRootTelemetry(verdict == monitor.Violated)
	if verdict == monitor.Violated {
		// A violated monitor state is not propagated: every extension is
		// already reported at its shortest witness.
		viol := Violation{Cut: lattice.NewCut(clock.Ref{}, initial)}
		if opts.Counterexamples {
			viol.Run = &lattice.Run{States: []logic.State{initial}}
		}
		o.result.Violations = append(o.result.Violations, viol)
		o.opts.Progress.record(&o.result.Stats, 1, 1)
		return o, nil
	}
	o.opts.Progress.record(&o.result.Stats, 1, 0)
	root := &pentry{vals: vals, bits: bits}
	root.keys = append(root.inline[:0], mstate{key: m.Key()})
	o.frontier = []*pentry{root}
	o.scratch = m
	return o, nil
}

// Feed delivers one observer message (any order) and advances the
// analysis as far as the delivered events allow. In lossy mode a
// message that cannot be accepted (duplicate, unknown thread, arrival
// after the thread completed) is counted in the degradation report
// and ignored instead of failing the session.
func (o *Online) Feed(m event.Message) error {
	if err := o.buffer(m); err != nil {
		if o.opts.Lossy {
			o.result.Degrade().Rejected++
			return nil
		}
		return err
	}
	return o.advance()
}

// buffer validates and enqueues one message without advancing.
func (o *Online) buffer(m event.Message) error {
	if o.closed {
		return fmt.Errorf("predict: Feed after Close")
	}
	i := m.Event.Thread
	if i < 0 || i >= o.threads {
		return fmt.Errorf("predict: message for unknown thread %d", i)
	}
	k := m.Clock.Get(i)
	if k == 0 {
		return fmt.Errorf("predict: message %v has zero own clock component", m)
	}
	if o.final[i] {
		return fmt.Errorf("predict: message for completed thread %d", i)
	}
	if k <= uint64(len(o.events[i])) {
		return fmt.Errorf("predict: duplicate message for thread %d position %d", i, k)
	}
	if _, dup := o.pending[i][k]; dup {
		return fmt.Errorf("predict: duplicate message for thread %d position %d", i, k)
	}
	o.pending[i][k] = smsg{m, o.slotOf(m)}
	// Absorb any now-contiguous prefix.
	for {
		next := uint64(len(o.events[i])) + 1
		msg, ok := o.pending[i][next]
		if !ok {
			break
		}
		delete(o.pending[i], next)
		o.events[i] = append(o.events[i], msg)
	}
	// A late gap-filler can complete a thread whose done notice
	// already arrived.
	if o.announced[i] && len(o.pending[i]) == 0 {
		o.final[i] = true
	}
	return nil
}

// slotOf resolves the slot a message writes, or -1 when it writes
// none (see smsg).
func (o *Online) slotOf(m event.Message) int {
	if m.Event.Kind.IsChannel() {
		return -1
	}
	if slot, ok := o.initial.Slot(m.Event.Var); ok {
		return slot
	}
	return -1
}

// FinishThread declares that a thread will send no further messages.
// In lossy mode a completion notice that arrives while the thread
// still has undeliverable out-of-order messages does not fail the
// session: the thread stays open so late gap-fillers can still land,
// and Close truncates whatever remains missing.
func (o *Online) FinishThread(i int) error {
	if i < 0 || i >= o.threads {
		if o.opts.Lossy {
			o.result.Degrade().Rejected++
			return nil
		}
		return fmt.Errorf("predict: unknown thread %d", i)
	}
	o.announced[i] = true
	if len(o.pending[i]) > 0 {
		if !o.opts.Lossy {
			return fmt.Errorf("predict: thread %d finished with %d undeliverable out-of-order messages", i, len(o.pending[i]))
		}
		return nil // keep the thread open for late gap-fillers
	}
	o.final[i] = true
	return o.advance()
}

// Violations returns the violations found so far.
func (o *Online) Violations() []Violation { return o.result.Violations }

// Level returns the lattice level of the current frontier.
func (o *Online) Level() int { return o.result.Stats.Levels - 1 }

// Close marks every thread complete, drains the analysis and returns
// the final result. In strict mode a delivery gap is an error; in
// lossy mode (Options.Lossy or CloseLossy) each thread's stream is
// truncated at its first gap, the loss is recorded in Result.Degraded,
// and the partial result is returned without error. Either way the
// analysis is over: its telemetry and Progress are finished.
func (o *Online) Close() (res Result, err error) {
	if o.closed {
		return o.result, nil
	}
	o.closed = true
	defer func() {
		o.memo, o.cuts, o.pslab, o.vslab = nil, nil, nil, nil
		finishTelemetry(&o.result)
		o.opts.Progress.record(&o.result.Stats, len(o.frontier), len(o.result.Violations))
		o.opts.Progress.finish()
		res = o.result
	}()
	if o.opts.Lossy {
		o.truncateGaps()
	} else {
		for i := 0; i < o.threads; i++ {
			if len(o.pending[i]) > 0 {
				return o.result, fmt.Errorf("predict: thread %d has a gap: %d out-of-order messages never became deliverable", i, len(o.pending[i]))
			}
		}
	}
	for i := range o.final {
		o.final[i] = true
	}
	if err := o.advance(); err != nil {
		return o.result, err
	}
	// advance retires the frontier only once every delivered event is
	// applied, so a live frontier here means some never can be.
	if len(o.frontier) > 0 {
		if !o.opts.Lossy {
			return o.result, fmt.Errorf("predict: analysis stalled with %d of %d events applied", o.applied, o.delivered())
		}
		o.result.Degrade().Stalled = true
	}
	return o.result, nil
}

// CloseLossy closes the analysis tolerantly regardless of how it was
// opened: the observer uses it when it discovers mid-session (a stalled
// channel, a torn stream) that the session can no longer complete.
func (o *Online) CloseLossy() (Result, error) {
	o.opts.Lossy = true
	return o.Close()
}

// Partial returns a snapshot of the result accumulated so far without
// closing the analysis — the violations and statistics of every level
// fully analyzed to date. Callers use it to salvage the work done
// before an unrecoverable session error.
func (o *Online) Partial() Result { return o.result }

// truncateGaps cuts each thread's stream at its first delivery gap,
// recording the loss and a lower bound on the lattice cuts that became
// unexplorable (the frontier successors whose event is known lost).
func (o *Online) truncateGaps() {
	for i := 0; i < o.threads; i++ {
		if len(o.pending[i]) == 0 {
			continue
		}
		d := o.result.Degrade()
		// Events buffered beyond the gap prove the sender produced at
		// least maxPos events; successors needing a lost one of those
		// can never be explored.
		maxPos := uint64(len(o.events[i]))
		for k := range o.pending[i] {
			if k > maxPos {
				maxPos = k
			}
		}
		delivered := uint64(len(o.events[i]))
		for _, ent := range o.frontier {
			need := ent.counts.Get(i) + 1
			if need > delivered && need <= maxPos {
				d.UnexplorableCuts++
			}
		}
		d.Threads = append(d.Threads, ThreadLoss{
			Thread:    i,
			Delivered: int(delivered),
			Dropped:   len(o.pending[i]),
			FirstGap:  delivered + 1,
		})
		o.pending[i] = map[uint64]smsg{}
	}
}

// ready reports whether the current frontier's successor set is fully
// determined: every (entry, thread) pair either has its candidate
// event delivered or is known to have none.
func (o *Online) ready() bool {
	for i := 0; i < o.threads; i++ {
		if o.final[i] {
			continue
		}
		for _, ent := range o.frontier {
			if int(ent.counts.Get(i)) >= len(o.events[i]) {
				return false // the candidate may still arrive
			}
		}
	}
	return true
}

// advance is the level driver of both analyzers: it expands complete
// levels until blocked on undelivered events, sealing each one into
// the statistics, telemetry, level spans and Progress, enforcing the
// budget, and reporting the level's violations. One full level is
// sealed per iteration, so at most two adjacent levels are alive at
// any time.
func (o *Online) advance() error {
	for len(o.frontier) > 0 && o.ready() {
		out, err := o.expandLevel()
		if err != nil {
			return err
		}
		if len(out.next) == 0 {
			// Frontier entries have no available successors at all:
			// analysis of delivered events is complete, unless some
			// delivered event can never be applied (Close reports the
			// stall).
			if o.allFinal() && o.applied == o.delivered() {
				o.frontier = nil
			}
			return nil
		}
		// One event of each path is consumed per level.
		o.applied++
		o.result.Stats.Cuts += out.newCuts
		o.result.Stats.Pairs += out.pairs
		o.result.Stats.addLevel(len(out.next), out.pairWidth)
		flushLevelTelemetry(len(out.next), out.pairWidth, out.newCuts, out.pairs, out.transitions, out.edges, out.violated)
		publishStatus(&o.result, false)
		o.ls.seal(o.result.Stats.Levels-1, len(out.next), out.newCuts)
		if err := checkBudget(o.opts, &o.result.Stats, len(out.next)); err != nil {
			return err
		}
		// A slab's tail can serve the levels after the one it was
		// carved for, and a slab lives while any cut in it does, so
		// the retired level drops what its cuts point at (their
		// representative paths above all) instead of keeping it alive.
		for _, e := range o.frontier {
			e.keys, e.viol = nil, nil
		}
		o.frontier = out.next
		o.report(out.next)
		o.opts.Progress.record(&o.result.Stats, len(o.frontier), len(o.result.Violations))
	}
	return nil
}

// report appends a sealed level's violating cuts to the result, in
// canonical order: the level is in creation order, so only its
// violating cuts are sorted, by cut clock. A cut belongs to exactly
// one level, so each violating cut is reported exactly once, whatever
// number of monitor states or parents reached it. Result.Violations
// grows once per level, and each violation's State is built here,
// over the initial state's names with its own copy of the cut's
// values, so a stored violation keeps no slab alive.
func (o *Online) report(level []*pentry) {
	viols := o.cuts[:0]
	for _, e := range level {
		if e.viol != nil {
			viols = append(viols, e)
		}
	}
	o.result.Violations = slices.Grow(o.result.Violations, len(viols))
	slices.SortFunc(viols, func(a, b *pentry) int { return clock.Compare(a.counts, b.counts) })
	for _, e := range viols {
		viol := Violation{Cut: lattice.NewCut(e.counts, o.initial.WithValues(e.vals))}
		if o.opts.Counterexamples {
			run := o.buildRun(e.viol.path)
			viol.Run = &run
		}
		o.result.Violations = append(o.result.Violations, viol)
	}
	o.cuts = release(viols)
}

// expandSuccessors enumerates the consistent single-event extensions
// of one frontier entry from the delivered per-thread event prefixes.
// For each it yields the advancing thread, the 1-based index of the
// applied event within that thread, and the applied message; the
// level step finds or builds the successor cut.
func (o *Online) expandSuccessors(ent *pentry, yield func(thread, index int, m *smsg)) {
	for i := 0; i < o.threads; i++ {
		need := int(ent.counts.Get(i)) + 1
		if need > len(o.events[i]) {
			continue
		}
		m := &o.events[i][need-1]
		if !consistentExtension(m.Clock, ent.counts, i) {
			continue
		}
		yield(i, need, m)
	}
}

// delivered counts the events buffered in per-thread order.
func (o *Online) delivered() int {
	n := 0
	for i := range o.events {
		n += len(o.events[i])
	}
	return n
}

func (o *Online) allFinal() bool {
	for _, f := range o.final {
		if !f {
			return false
		}
	}
	return true
}

// buildRun reconstructs a counterexample Run from encoded path ids,
// reading the messages out of the per-thread buffers.
func (o *Online) buildRun(ids []int) lattice.Run {
	run := lattice.Run{States: []logic.State{o.initial}}
	cur := o.initial
	for _, id := range ids {
		th := id >> 32
		idx := id & 0xffffffff
		m := o.events[th][idx-1]
		if m.slot >= 0 {
			cur = cur.With(m.Event.Var, m.Event.Value)
		}
		run.Msgs = append(run.Msgs, m.Message)
		run.States = append(run.States, cur)
	}
	return run
}

// consistentExtension checks the consistent-cut condition: every
// causal predecessor of the event (per its clock) is inside the cut.
// Normalized Refs carry no trailing zeros, so components at or beyond
// clk.Len() are zero and trivially inside the cut.
func consistentExtension(clk clock.Ref, counts clock.Ref, thread int) bool {
	for j := 0; j < clk.Len(); j++ {
		if j == thread {
			continue
		}
		if clk.Get(j) > counts.Get(j) {
			return false
		}
	}
	return true
}

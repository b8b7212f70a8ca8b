package predict

import (
	"slices"

	"gompax/internal/clock"
	"gompax/internal/event"
	"gompax/internal/logic"
	"gompax/internal/monitor"
)

// This file implements the level step both analyzers share.
// Online.advance, the level driver that Analyze and Online both run,
// calls expandLevel once per level; the step runs inline on the
// calling goroutine over a plain map from cut digest to cut.
//
// Invariants (see DESIGN.md §8):
//
//   - Level barrier: level k+1 is sealed (every successor of every
//     level-k cut found or built, every monitor state stepped and
//     merged) before any level-k+2 work starts; level k is retired at
//     the barrier. At most two adjacent levels are ever alive — the
//     paper's memory bound is preserved.
//   - Level-scoped cut identity: a cut lives on exactly one level, so
//     only that level's map knows it. No clock table holds cut clocks,
//     and a retired level's cuts are garbage at the barrier.
//   - Set semantics: the set of cuts per level, the set of monitor
//     states per cut, and the set of violating cuts are pure functions
//     of the computation and formula, so they are identical whatever
//     order the events were delivered in.
//   - Deterministic reports: every representative path (one per
//     monitor state of a cut, one per violating cut) is the
//     canonically least candidate, and the sealed level is sorted by
//     cut clock, so the output does not depend on the order parents
//     are expanded in.

// pentry is one frontier cut: its per-thread event counts, the global
// state there, and the monitor states reachable at it.
type pentry struct {
	counts clock.Ref
	state  logic.State
	// keys holds the monitor states reachable at the cut, each with
	// one representative path (nil unless counterexamples are
	// tracked). It starts on inline, so only a cut that carries a
	// second state allocates.
	keys   []mstate
	inline [1]mstate
	// viol is non-nil at a cut where some monitor state steps to
	// Violated: the cut is the violation's identity.
	viol *violRep
	// alias chains the cuts of the level being sealed that share a
	// digest; nil but on a digest collision.
	alias *pentry
}

// mstate is one monitor state of a cut and its representative path.
type mstate struct {
	key  uint64
	path []int
}

// violRep is a violating cut's representative: the canonically least
// (pre-step monitor key, path) that violated there, reported as its
// counterexample. It lives outside pentry so the common, non-violating
// cut stays in a smaller allocation size class.
type violRep struct {
	mkey uint64
	path []int
}

// levelOut is one sealed level.
type levelOut struct {
	next      []*pentry // the new frontier, sorted by cut clock
	newCuts   int       // distinct cuts built this level
	pairs     int       // (cut, monitor state) pairs stepped
	pairWidth int       // pairs alive in the sealed level
	edges     int       // successor edges expanded (edges-newCuts = dedup hits)
	violated  int       // violating pairs stepped (a cut may count several)
}

// cutDigest keys the level map: the digest of a parent's successor
// along a thread, computed from the parent's in O(1).
var cutDigest = clock.TickDigest

// expandLevel seals the level after the frontier: every entry's
// successors are found or built, monitor states stepped and merged,
// and violating cuts marked. A successor's digest is looked up before
// anything is built; a hit is confirmed by value (clock.IsTick), and
// only a cut new to the level gets a node and a state. It returns only
// after every successor is done (the level barrier), with the new
// frontier sorted by cut clock.
func (o *Online) expandLevel() (levelOut, error) {
	var out levelOut
	var err error
	next := make(map[uint64]*pentry, len(o.frontier))
	for _, ent := range o.frontier {
		o.expandSuccessors(ent, func(thread, index int, m *event.Message) {
			if err != nil {
				return
			}
			out.edges++
			d := cutDigest(ent.counts, thread)
			head := next[d]
			tgt := head
			for tgt != nil && !clock.IsTick(tgt.counts, ent.counts, thread) {
				tgt = tgt.alias
			}
			if tgt == nil {
				tgt = newEntry(clock.Tick(ent.counts, thread), applyMessage(ent.state, *m))
				tgt.alias = head
				next[d] = tgt
				out.newCuts++
			}
			err = out.step(o.scratch, ent, tgt, pathID(thread, index), o.opts.Counterexamples)
		})
		if err != nil {
			return out, err
		}
	}
	out.next = make([]*pentry, 0, out.newCuts)
	for _, e := range next {
		for ; e != nil; e = e.alias {
			out.next = append(out.next, e)
			out.pairWidth += len(e.keys)
		}
	}
	slices.SortFunc(out.next, func(a, b *pentry) int { return clock.Compare(a.counts, b.counts) })
	return out, nil
}

func newEntry(counts clock.Ref, state logic.State) *pentry {
	e := &pentry{counts: counts, state: state}
	e.keys = e.inline[:0]
	return e
}

// step steps every monitor state of ent across one edge into tgt. A
// surviving state is merged into tgt's key set; a violating one marks
// tgt as a violating cut and is not propagated (every extension of a
// violating run prefix is already reported at its shortest witness).
// Both keep the canonically least representative, so the result does
// not depend on the order parents are expanded in.
func (out *levelOut) step(scratch *monitor.Monitor, ent, tgt *pentry, edge int, paths bool) error {
	for _, ms := range ent.keys {
		scratch.Restore(ms.key)
		// A pointer Env: stepping a State value would box a copy per
		// pair.
		verdict, err := scratch.Step(&tgt.state)
		if err != nil {
			return err
		}
		out.pairs++
		violated := verdict == monitor.Violated
		if violated {
			out.violated++
		}
		tgt.merge(violated, ms.key, scratch.Key(), extendPath(paths, ms.path, edge), paths)
	}
	return nil
}

// merge folds one stepped pair into the cut: a violating pre-step
// state mkey competes for the cut's violation representative, a
// surviving post-step state nk for its key-set slot.
func (e *pentry) merge(violated bool, mkey, nk uint64, p []int, paths bool) {
	if violated {
		switch v := e.viol; {
		case v == nil:
			e.viol = &violRep{mkey: mkey, path: p}
		case mkey < v.mkey || (mkey == v.mkey && lessPath(p, v.path)):
			v.mkey, v.path = mkey, p
		}
		return
	}
	for k := range e.keys {
		if ms := &e.keys[k]; ms.key == nk {
			if paths && lessPath(p, ms.path) {
				ms.path = p
			}
			return
		}
	}
	e.keys = append(e.keys, mstate{key: nk, path: p})
}

// pathID encodes an edge (thread, 1-based index within the thread) for
// compact path storage.
func pathID(thread, index int) int { return thread<<32 | index }

// extendPath appends one encoded edge to a representative path,
// returning nil when paths are not tracked.
func extendPath(track bool, path []int, edge int) []int {
	if !track {
		return nil
	}
	p := make([]int, len(path)+1)
	copy(p, path)
	p[len(path)] = edge
	return p
}

// lessPath orders encoded paths lexicographically.
func lessPath(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

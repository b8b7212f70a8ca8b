package predict

import (
	"slices"

	"gompax/internal/clock"
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
//   - Cheap new cuts: a cut's state is a vector of values by slot in
//     the session's variable order. A new cut copies its parent's
//     vector and writes one slot (a channel event shares the parent's
//     vector), and its pentry and vector are carved from slabs sized
//     to the frontier, so the cut's clock (one allocation when it fits
//     one chunk) is its only allocation of its own. A slab is plain
//     memory that lives while a cut in it does; Close drops the
//     unused tails.
//   - One transition per valuation: a cut's atoms are evaluated once,
//     over its value vector through the session's compiled atoms,
//     when the first pair steps into it, and each distinct (monitor
//     key, atom valuation) transition is computed once per level. The
//     transition memo is cleared at the barrier, so like the level
//     map it never outlives a level.
//   - Set semantics: the set of cuts per level, the set of monitor
//     states per cut, and the set of violating cuts are pure functions
//     of the computation and formula, so they are identical whatever
//     order the events were delivered in.
//   - Deterministic reports: every representative path (one per
//     monitor state of a cut, one per violating cut) is the
//     canonically least candidate, and a level's violating cuts are
//     reported sorted by cut clock, so the output does not depend on
//     the order parents are expanded in. The sealed level itself is in
//     creation order, a deterministic function of the previous
//     level's order.

// pentry is one frontier cut: its per-thread event counts, the global
// state there as values by slot, its atom valuation and the monitor
// states reachable at it. It is 104 bytes (TestPentrySizeClass); the
// level step carves it from a slab, so every byte is paid per cut.
type pentry struct {
	counts clock.Ref
	// vals is the cut's state: one value per slot of the session's
	// variable order. It is never written after the cut is built, so
	// a cut reached by a channel event shares its parent's.
	vals []int64
	// keys holds the monitor states reachable at the cut, each with
	// one representative path (nil unless counterexamples are
	// tracked). It starts on inline, so only a cut that carries a
	// second state allocates.
	keys   []mstate
	inline [1]mstate
	// viol is non-nil at a cut where some monitor state steps to
	// Violated: the cut is the violation's identity.
	viol *violRep
	// bits is the formula's atom valuation at the cut
	// (monitor.SlotAtoms.Bits), set when the first pair steps into the
	// cut. Every stepped pair leaves a key or a violation behind, so
	// bits is valid exactly when keys or viol is set.
	bits uint64
}

// maxSlab caps the cuts one slab holds. A slab is sized to the
// frontier, the best guess at the width of the level being built, so
// a narrow lattice wastes at most the tail of a small slab. A slab
// lives while any cut in it does, so the cap also bounds what one
// live cut can keep. At 64 the slab is 1/64 of an allocation per cut:
// on BenchmarkExploreViolating a cap of 8 or 16 costs 13% or 5% more
// allocations and one of 256 saves 0.2%, with no time difference
// beyond run-to-run noise on a 2-vCPU VM.
const maxSlab = 64

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

// memoKey keys the level's transition memo: a pre-step monitor key and
// the atom valuation of the cut it steps into.
type memoKey struct{ key, bits uint64 }

// transition is one memoized monitor step: the post-step key and
// whether the step violated.
type transition struct {
	next     uint64
	violated bool
}

// levelOut is one sealed level.
type levelOut struct {
	next        []*pentry // the new frontier, in creation order
	newCuts     int       // distinct cuts built this level
	pairs       int       // (cut, monitor state) pairs stepped
	transitions int       // monitor transitions computed (memo misses)
	pairWidth   int       // pairs alive in the sealed level
	edges       int       // successor edges expanded (edges-newCuts = dedup hits)
	violated    int       // violating pairs stepped (a cut may count several)
}

// cutDigest keys the level map: the digest of a parent's successor
// along a thread, computed from the parent's in O(1).
var cutDigest = clock.TickDigest

// expandLevel seals the level after the frontier: every entry's
// successors are found or built, monitor states stepped and merged,
// and violating cuts marked. A successor's digest is looked up before
// anything is built; a hit is confirmed by value (clock.IsTick), and
// only a cut new to the level gets a node and a state. Cuts whose
// digest is already taken go to a spill map, made only on such a
// collision. It returns only after every successor is done (the level
// barrier), with the new frontier in creation order.
func (o *Online) expandLevel() (levelOut, error) {
	var out levelOut
	var err error
	next := make(map[uint64]*pentry, len(o.frontier))
	var spill map[uint64][]*pentry
	if o.memo == nil {
		o.memo = make(map[memoKey]transition)
	} else {
		clear(o.memo)
	}
	level := o.cuts[:0]
	for _, ent := range o.frontier {
		o.expandSuccessors(ent, func(thread, index int, m *smsg) {
			if err != nil {
				return
			}
			out.edges++
			d := cutDigest(ent.counts, thread)
			head := next[d]
			tgt := head
			if tgt != nil && !clock.IsTick(tgt.counts, ent.counts, thread) {
				tgt = findTick(spill[d], ent.counts, thread)
			}
			if tgt == nil {
				tgt = o.newCut(ent, thread, m)
				if head == nil {
					next[d] = tgt
				} else {
					if spill == nil {
						spill = make(map[uint64][]*pentry)
					}
					spill[d] = append(spill[d], tgt)
				}
				level = append(level, tgt)
			}
			err = o.step(&out, ent, tgt, pathID(thread, index))
		})
		if err != nil {
			break
		}
	}
	out.newCuts = len(level)
	out.next = slices.Clone(level)
	for _, e := range out.next {
		out.pairWidth += len(e.keys)
	}
	o.cuts = release(level)
	return out, err
}

// findTick returns the cut among cands that equals r with component i
// raised by one, or nil.
func findTick(cands []*pentry, r clock.Ref, i int) *pentry {
	for _, c := range cands {
		if clock.IsTick(c.counts, r, i) {
			return c
		}
	}
	return nil
}

// release empties a reused cut buffer, dropping its pointers so it
// keeps no retired cut alive.
func release(buf []*pentry) []*pentry {
	clear(buf)
	return buf[:0]
}

// newCut builds the successor of ent along thread, through m: the
// ticked clock, and a pentry and (unless m is a channel event) a value
// vector carved from the slabs.
func (o *Online) newCut(ent *pentry, thread int, m *smsg) *pentry {
	if len(o.pslab) == 0 {
		o.pslab = make([]pentry, min(len(o.frontier), maxSlab))
	}
	e := &o.pslab[0]
	o.pslab = o.pslab[1:]
	e.counts = clock.Tick(ent.counts, thread)
	e.keys = e.inline[:0]
	e.vals = ent.vals
	if m.slot >= 0 {
		n := len(ent.vals)
		if len(o.vslab) < n {
			o.vslab = make([]int64, n*min(len(o.frontier), maxSlab))
		}
		e.vals, o.vslab = o.vslab[:n:n], o.vslab[n:]
		copy(e.vals, ent.vals)
		e.vals[m.slot] = m.Event.Value
	}
	return e
}

// step steps every monitor state of ent across one edge into tgt. The
// first pair into tgt evaluates its atoms; each pair then takes its
// transition from the level's memo, stepping the monitor only on a
// miss. A surviving state is merged into tgt's key set; a violating
// one marks tgt as a violating cut and is not propagated (every
// extension of a violating run prefix is already reported at its
// shortest witness). Both keep the canonically least representative,
// so the result does not depend on the order parents are expanded in.
func (o *Online) step(out *levelOut, ent, tgt *pentry, edge int) error {
	if len(ent.keys) == 0 {
		return nil
	}
	if len(tgt.keys) == 0 && tgt.viol == nil {
		bits, err := o.atoms.Bits(tgt.vals)
		if err != nil {
			return err
		}
		tgt.bits = bits
	}
	paths := o.opts.Counterexamples
	for _, ms := range ent.keys {
		mk := memoKey{ms.key, tgt.bits}
		tr, ok := o.memo[mk]
		if !ok {
			o.scratch.Restore(ms.key)
			tr.violated = o.scratch.StepBits(tgt.bits) == monitor.Violated
			tr.next = o.scratch.Key()
			o.memo[mk] = tr
			out.transitions++
		}
		out.pairs++
		if tr.violated {
			out.violated++
		}
		tgt.merge(tr.violated, ms.key, tr.next, extendPath(paths, ms.path, edge), paths)
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

package predict

import (
	"runtime"
	"slices"
	"sync"

	"gompax/internal/clock"
	"gompax/internal/event"
	"gompax/internal/lattice"
	"gompax/internal/logic"
	"gompax/internal/monitor"
)

// This file implements the level step both analyzers share.
// Online.advance, the level driver that Analyze and Online both run,
// calls expandLevel once per level.
//
// With one worker the step runs inline on the calling goroutine over a
// plain map. With more, each level's frontier is split across a worker
// pool that deduplicates successor cuts in a sharded cut table keyed by
// the cut's clock (lattice.Sharded), so workers only contend when two
// paths genuinely merge into the same cut — and even then only on that
// cut's own mutex.
//
// Invariants (see DESIGN.md §8):
//
//   - Level barrier: level k+1 is sealed (every successor of every
//     level-k cut interned, every monitor state stepped and merged)
//     before any level-k+2 work starts; level k is retired at the
//     barrier. At most two adjacent levels are ever alive — the
//     paper's memory bound is preserved.
//   - Set semantics: the set of cuts per level, the set of monitor
//     states per cut, and the set of violating cuts are pure functions
//     of the computation and formula, so they are identical however
//     parents are scheduled across workers.
//   - Deterministic reports: every representative path (one per
//     monitor state of a cut, one per violating cut) is the
//     canonically least candidate, and the sealed level is sorted by
//     cut clock, so the output is identical for every worker count.

// pentry is one frontier cut: its per-thread event counts, the global
// state there, and the monitor states reachable at it, each with one
// representative path (nil unless counterexamples are tracked). The
// mutex serializes merges by pool workers; the inline step never
// locks it.
type pentry struct {
	counts clock.Ref
	state  logic.State
	mu     sync.Mutex
	keys   map[uint64][]int
	// viol is non-nil at a cut where some monitor state steps to
	// Violated: the cut is the violation's identity.
	viol *violRep
}

// violRep is a violating cut's representative: the canonically least
// (pre-step monitor key, path) that violated there, reported as its
// counterexample. It lives outside pentry so the common, non-violating
// cut stays in the smaller allocation size class.
type violRep struct {
	mkey uint64
	path []int
}

// levelOut is one sealed level.
type levelOut struct {
	next      []*pentry // the new frontier, sorted by cut clock
	newCuts   int       // distinct cuts interned this level
	pairs     int       // (cut, monitor state) pairs stepped
	pairWidth int       // pairs alive in the sealed level
	edges     int       // successor edges expanded (edges-newCuts = dedup hits)
	violated  int       // violating pairs stepped (a cut may count several)
}

// normalizeWorkers maps the Options.Workers knob to a pool size:
// 0 and 1 select the inline step, n>1 selects n workers, and a
// negative value selects GOMAXPROCS.
func normalizeWorkers(w int) int {
	if w < 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// expandLevel seals the level after the frontier: every entry's
// successors are interned, monitor states stepped and merged, and
// violating cuts marked. It returns only after every successor is done
// (the level barrier), with the new frontier sorted by cut clock.
func (o *Online) expandLevel() (levelOut, error) {
	var out levelOut
	var err error
	if workers := min(o.opts.Workers, len(o.frontier)); workers <= 1 {
		out, err = o.expandInline()
	} else {
		out, err = o.expandPool(workers)
	}
	if err != nil {
		return out, err
	}
	slices.SortFunc(out.next, func(a, b *pentry) int { return clock.Compare(a.counts, b.counts) })
	for _, e := range out.next {
		out.pairWidth += len(e.keys)
	}
	return out, nil
}

// expandInline is the level step on the calling goroutine.
func (o *Online) expandInline() (levelOut, error) {
	var out levelOut
	var err error
	next := make(map[clock.Ref]*pentry, len(o.frontier))
	for _, ent := range o.frontier {
		o.expandSuccessors(ent, func(thread, index int, counts clock.Ref, m *event.Message) {
			if err != nil {
				return
			}
			out.edges++
			tgt := next[counts]
			if tgt == nil {
				tgt = newEntry(counts, applyMessage(ent.state, *m))
				next[counts] = tgt
				out.newCuts++
			}
			err = out.step(o.scratch, ent, tgt, pathID(thread, index), o.opts.Counterexamples, false)
		})
		if err != nil {
			return out, err
		}
	}
	out.next = make([]*pentry, 0, len(next))
	for _, e := range next {
		out.next = append(out.next, e)
	}
	return out, nil
}

// expandPool is the level step on a pool of workers claiming parent
// entries round-robin.
func (o *Online) expandPool(workers int) (levelOut, error) {
	entries := o.frontier
	table := lattice.NewSharded[clock.Ref, *pentry](workers * 8)
	// Live queue depth: parents not yet claimed in the level being
	// expanded. One atomic add per parent entry, not per edge.
	mWorkerQueue.Set(int64(len(entries)))
	defer mWorkerQueue.Set(0)

	outs := make([]levelOut, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scratch := o.prog.NewMonitor()
			out := &outs[w]
			for idx := w; idx < len(entries) && errs[w] == nil; idx += workers {
				mWorkerQueue.Add(-1)
				ent := entries[idx]
				o.expandSuccessors(ent, func(thread, index int, counts clock.Ref, m *event.Message) {
					if errs[w] != nil {
						return
					}
					out.edges++
					tgt, created := table.GetOrCreate(counts.Digest(), counts, func() *pentry {
						return newEntry(counts, applyMessage(ent.state, *m))
					})
					if created {
						out.newCuts++
					}
					errs[w] = out.step(scratch, ent, tgt, pathID(thread, index), o.opts.Counterexamples, true)
				})
			}
		}()
	}
	wg.Wait()

	var out levelOut
	for w := range outs {
		if errs[w] != nil {
			return out, errs[w]
		}
		out.newCuts += outs[w].newCuts
		out.pairs += outs[w].pairs
		out.edges += outs[w].edges
		out.violated += outs[w].violated
	}
	out.next = make([]*pentry, 0, out.newCuts)
	table.Range(func(_ clock.Ref, e *pentry) { out.next = append(out.next, e) })
	return out, nil
}

func newEntry(counts clock.Ref, state logic.State) *pentry {
	return &pentry{counts: counts, state: state, keys: map[uint64][]int{}}
}

// step steps every monitor state of ent across one edge into tgt. A
// surviving state is merged into tgt's key set; a violating one marks
// tgt as a violating cut and is not propagated (every extension of a
// violating run prefix is already reported at its shortest witness).
// Both keep the canonically least representative, so the result does
// not depend on the order parents are expanded in. Pool workers pass
// locked: other workers may merge into tgt concurrently, so each merge
// holds tgt.mu. The parent's key set was sealed at the previous
// barrier and is read lock-free.
func (out *levelOut) step(scratch *monitor.Monitor, ent, tgt *pentry, edge int, paths, locked bool) error {
	for mkey, path := range ent.keys {
		scratch.Restore(mkey)
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
		p := extendPath(paths, path, edge)
		if locked {
			tgt.mu.Lock()
		}
		tgt.merge(violated, mkey, scratch.Key(), p, paths)
		if locked {
			tgt.mu.Unlock()
		}
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
	if old, seen := e.keys[nk]; !seen || (paths && lessPath(p, old)) {
		e.keys[nk] = p
	}
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

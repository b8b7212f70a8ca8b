// Package lattice reconstructs the multithreaded computation from the
// observer messages and builds the computation lattice of §4: the set
// of all consistent global states (cuts) of the relevant causality,
// ordered by single-event transitions. Every maximal path through the
// lattice is one multithreaded run — one possible interleaving of the
// program consistent with the observed causality — and the observed
// execution is exactly one such path.
//
// Two construction styles are provided:
//
//   - Computation.Successors supports the paper's level-by-level,
//     memory-bounded traversal (at most two adjacent levels live at a
//     time). The predict package runs the same traversal over the
//     per-thread messages (Message), with cut identity scoped to each
//     level instead of the computation's clock Table.
//   - Build materializes the full lattice with edges, for
//     visualization, run enumeration and cross-checking against
//     brute-force linear-extension counting.
package lattice

import (
	"fmt"
	"sort"
	"strings"

	"gompax/internal/clock"
	"gompax/internal/event"
	"gompax/internal/logic"
	"gompax/internal/vc"
)

// Computation is a reconstructed multithreaded computation: the
// relevant messages of each thread in causal (program) order, plus the
// initial global state of the relevant variables.
//
// Messages may be supplied in any order: position within a thread is
// recovered from the message's own clock (V[i] of <e, i, V> is the
// 1-based index of the event among thread i's relevant events), which
// is how the observer tolerates arbitrary delivery reordering (§2.2).
//
// A Computation is immutable after NewComputation returns: every
// method (Successors, CanAdvance, Advance, Message, ...) only reads,
// so one Computation may be shared by any number of goroutines.
type Computation struct {
	initial   logic.State
	perThread [][]event.Message
	total     int
	// table interns the cut-count clocks Advance builds, so those Refs
	// are canonical: equal cuts carry the identical Ref, and Build keys
	// its node index on it directly.
	table *clock.Table
}

// NewComputation indexes messages by thread and per-thread position.
// threads fixes the thread count; pass 0 to infer it from the
// messages. The initial state must bind every relevant variable.
func NewComputation(initial logic.State, threads int, msgs []event.Message) (*Computation, error) {
	for _, m := range msgs {
		if m.Event.Thread+1 > threads {
			threads = m.Event.Thread + 1
		}
	}
	per := make([][]event.Message, threads)
	for _, m := range msgs {
		i := m.Event.Thread
		k := m.Clock.Get(i)
		if k == 0 {
			return nil, fmt.Errorf("lattice: message %v has zero own-component clock", m)
		}
		idx := int(k) - 1
		for len(per[i]) <= idx {
			per[i] = append(per[i], event.Message{})
		}
		// A stored message always has a nonzero own component (checked
		// above), so a zero clock marks an unfilled slot.
		if !per[i][idx].Clock.IsZero() {
			return nil, fmt.Errorf("lattice: duplicate message for thread %d position %d", i, k)
		}
		per[i][idx] = m
	}
	total := 0
	for i, list := range per {
		for k, m := range list {
			if m.Clock.IsZero() {
				return nil, fmt.Errorf("lattice: missing message for thread %d position %d", i, k+1)
			}
		}
		total += len(list)
	}
	mComputations.Inc()
	return &Computation{initial: initial, perThread: per, total: total, table: clock.NewTable()}, nil
}

// Table returns the computation's clock interning table. Cut counts
// produced by Advance are canonical within it.
func (c *Computation) Table() *clock.Table { return c.table }

// Initial returns the initial global state.
func (c *Computation) Initial() logic.State { return c.initial }

// Threads returns the number of threads.
func (c *Computation) Threads() int { return len(c.perThread) }

// Count returns the number of relevant events of a thread.
func (c *Computation) Count(thread int) int { return len(c.perThread[thread]) }

// Total returns the number of relevant events across all threads.
func (c *Computation) Total() int { return c.total }

// Message returns the k-th (1-based) relevant message of a thread.
func (c *Computation) Message(thread, k int) event.Message {
	return c.perThread[thread][k-1]
}

// Cut is a consistent global state of the computation: counts[i]
// relevant events of thread i have been applied to the initial state.
// The counts of a cut from Root or Advance are interned in the
// computation's table: within one computation, equal cuts carry the
// identical Ref. A cut from NewCut carries the Ref it was given.
type Cut struct {
	counts clock.Ref
	state  logic.State
}

// Root returns the bottom cut: no events applied, initial state. Its
// counts are the zero clock.
func (c *Computation) Root() Cut {
	return Cut{state: c.initial}
}

// Counts materializes the cut's per-thread event counts as a mutable
// vector (trailing zero counts normalized away).
func (cut Cut) Counts() vc.VC { return cut.counts.VC() }

// Clock returns the cut's counts as the interned Ref itself.
func (cut Cut) Clock() clock.Ref { return cut.counts }

// State returns the global state of the cut. It is well defined
// independently of the path taken to the cut: concurrent relevant
// events always write distinct variables (writes to the same variable
// are totally ordered by ≺), so the included writes of each variable
// are totally ordered and the last one wins.
func (cut Cut) State() logic.State { return cut.state }

// Level returns the lattice level (total events applied).
func (cut Cut) Level() int { return int(cut.counts.Sum()) }

// Key identifies the cut within its computation (trailing zeros
// normalized away).
func (cut Cut) Key() string { return cut.counts.Key() }

// Hash returns the precomputed digest of the cut's clock, consistent
// with Key (equal cuts hash identically). The parallel explorer uses
// it to pick the shard a cut is interned in; unlike the seed's
// re-hash-per-lookup it is a field read.
func (cut Cut) Hash() uint64 { return cut.counts.Digest() }

// String renders the cut like the paper's S_{c1,c2,...} labels, with
// trailing zero counts normalized away (the root is "S").
func (cut Cut) String() string {
	var b strings.Builder
	b.WriteString("S")
	n := cut.counts.Len()
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", cut.counts.Get(i))
	}
	return b.String()
}

// Succ is one outgoing lattice edge of a cut: applying Msg (the next
// relevant event of thread Thread) leads to Cut.
type Succ struct {
	Thread int
	Msg    event.Message
	Cut    Cut
}

// CanAdvance reports whether the cut can be extended with the next
// relevant event of the given thread: the event must exist and all its
// causal predecessors must already be inside the cut (V[j] ≤ counts[j]
// for every other thread j — the standard consistent-cut condition on
// vector clocks).
func (c *Computation) CanAdvance(cut Cut, thread int) bool {
	next := int(cut.counts.Get(thread)) + 1
	if next > len(c.perThread[thread]) {
		return false
	}
	v := c.perThread[thread][next-1].Clock
	for j := range c.perThread {
		if j == thread {
			continue
		}
		if v.Get(j) > cut.counts.Get(j) {
			return false
		}
	}
	return true
}

// Advance extends the cut with the next relevant event of the given
// thread. It panics if CanAdvance is false; callers iterate threads
// and filter with CanAdvance.
func (c *Computation) Advance(cut Cut, thread int) Succ {
	if !c.CanAdvance(cut, thread) {
		panic(fmt.Sprintf("lattice: cannot advance %v by thread %d", cut, thread))
	}
	next := int(cut.counts.Get(thread)) + 1
	m := c.perThread[thread][next-1]
	counts := c.table.Tick(cut.counts, thread)
	state := cut.state
	if !m.Event.Kind.IsChannel() {
		// Channel events advance the cut (they tick the thread's clock,
		// so they occupy lattice positions) but carry no state update:
		// the Var is a channel name, not a shared variable.
		state = state.With(m.Event.Var, m.Event.Value)
	}
	return Succ{
		Thread: thread,
		Msg:    m,
		Cut:    Cut{counts: counts, state: state},
	}
}

// Successors returns all single-event extensions of the cut, in thread
// order. It is safe to call concurrently from multiple goroutines:
// the computation is never mutated and the returned slice is fresh.
func (c *Computation) Successors(cut Cut) []Succ {
	var out []Succ
	for i := range c.perThread {
		if c.CanAdvance(cut, i) {
			out = append(out, c.Advance(cut, i))
		}
	}
	return out
}

// Top returns the maximal cut (all events applied) and its state.
func (c *Computation) Top() Cut {
	cut := c.Root()
	for level := 0; level < c.total; level++ {
		succs := c.Successors(cut)
		if len(succs) == 0 {
			panic("lattice: computation has a gap; Top unreachable")
		}
		cut = succs[0].Cut
	}
	return cut
}

// Node is a materialized lattice node.
type Node struct {
	ID  int
	Cut Cut
	// Out lists outgoing edges, in thread order.
	Out []Edge
}

// Edge is a materialized lattice edge.
type Edge struct {
	To     int
	Thread int
	Msg    event.Message
}

// Lattice is the fully materialized computation lattice.
type Lattice struct {
	comp   *Computation
	nodes  []Node
	levels [][]int // node ids per level
}

// ErrTooLarge is returned by Build when the lattice exceeds maxNodes.
type ErrTooLarge struct{ Max int }

func (e ErrTooLarge) Error() string {
	return fmt.Sprintf("lattice: more than %d nodes; use the level-by-level analyzer", e.Max)
}

// Build materializes the lattice breadth-first, level by level,
// deduplicating cuts (paths that permute concurrent events converge to
// the same node, which is what makes it a lattice rather than a tree).
// maxNodes bounds memory; 0 means no bound.
func Build(c *Computation, maxNodes int) (*Lattice, error) {
	l := &Lattice{comp: c}
	root := c.Root()
	l.nodes = append(l.nodes, Node{ID: 0, Cut: root})
	// Cut counts are interned in the computation's table, so the Ref
	// itself is the dedup key — no string materialization per cut.
	index := map[clock.Ref]int{root.Clock(): 0}
	level := []int{0}
	l.levels = append(l.levels, level)
	for len(level) > 0 {
		var next []int
		for _, id := range level {
			cut := l.nodes[id].Cut
			for _, s := range c.Successors(cut) {
				key := s.Cut.Clock()
				to, ok := index[key]
				if !ok {
					to = len(l.nodes)
					if maxNodes > 0 && to >= maxNodes {
						return nil, ErrTooLarge{Max: maxNodes}
					}
					l.nodes = append(l.nodes, Node{ID: to, Cut: s.Cut})
					index[key] = to
					next = append(next, to)
				}
				l.nodes[id].Out = append(l.nodes[id].Out, Edge{To: to, Thread: s.Thread, Msg: s.Msg})
			}
		}
		if len(next) > 0 {
			l.levels = append(l.levels, next)
		}
		level = next
	}
	mBuiltNodes.Add(uint64(len(l.nodes)))
	return l, nil
}

// NumNodes returns the number of distinct consistent cuts.
func (l *Lattice) NumNodes() int { return len(l.nodes) }

// NumLevels returns the number of levels (Total()+1 for a complete
// computation).
func (l *Lattice) NumLevels() int { return len(l.levels) }

// Node returns the node with the given id.
func (l *Lattice) Node(id int) Node { return l.nodes[id] }

// Level returns the node ids at the given level.
func (l *Lattice) Level(k int) []int { return l.levels[k] }

// Width returns the maximum number of cuts on any level — the memory
// high-water mark of the level-by-level analysis.
func (l *Lattice) Width() int {
	w := 0
	for _, lv := range l.levels {
		if len(lv) > w {
			w = len(lv)
		}
	}
	return w
}

// NumRuns counts the maximal paths (multithreaded runs) by dynamic
// programming over the DAG.
func (l *Lattice) NumRuns() int {
	memo := make([]int, len(l.nodes))
	for i := range memo {
		memo[i] = -1
	}
	var rec func(id int) int
	rec = func(id int) int {
		if memo[id] >= 0 {
			return memo[id]
		}
		n := l.nodes[id]
		if len(n.Out) == 0 {
			memo[id] = 1
			return 1
		}
		sum := 0
		for _, e := range n.Out {
			sum += rec(e.To)
		}
		memo[id] = sum
		return sum
	}
	return rec(0)
}

// Run is one maximal path through the lattice.
type Run struct {
	// Msgs are the relevant events in the order this run executes them.
	Msgs []event.Message
	// States is the corresponding global state sequence, beginning with
	// the initial state; len(States) == len(Msgs)+1.
	States []logic.State
}

// Runs enumerates maximal paths in depth-first order, calling fn for
// each (the Run's slices are reused; copy to retain). Enumeration
// stops when fn returns false or after limit runs when limit > 0. It
// returns the number of runs visited.
func (l *Lattice) Runs(limit int, fn func(r Run) bool) int {
	var msgs []event.Message
	states := []logic.State{l.comp.Initial()}
	count := 0
	stop := false
	var rec func(id int)
	rec = func(id int) {
		if stop {
			return
		}
		n := l.nodes[id]
		if len(n.Out) == 0 {
			count++
			if !fn(Run{Msgs: msgs, States: states}) || (limit > 0 && count >= limit) {
				stop = true
			}
			return
		}
		for _, e := range n.Out {
			msgs = append(msgs, e.Msg)
			states = append(states, l.nodes[e.To].Cut.State())
			rec(e.To)
			msgs = msgs[:len(msgs)-1]
			states = states[:len(states)-1]
			if stop {
				return
			}
		}
	}
	rec(0)
	return count
}

// DOT renders the lattice in Graphviz format, labelling nodes with the
// paper's <v1,v2,...> state tuples over the given variable order.
func (l *Lattice) DOT(varOrder []string) string {
	if varOrder == nil {
		varOrder = l.comp.Initial().Vars()
	}
	var b strings.Builder
	b.WriteString("digraph lattice {\n  rankdir=TB;\n  node [shape=box, fontname=\"monospace\"];\n")
	for _, n := range l.nodes {
		fmt.Fprintf(&b, "  n%d [label=\"%s\\n%s\"];\n", n.ID, n.Cut, n.Cut.State().Tuple(varOrder))
	}
	for _, n := range l.nodes {
		for _, e := range n.Out {
			fmt.Fprintf(&b, "  n%d -> n%d [label=\"%s=%d\"];\n", n.ID, e.To, e.Msg.Event.Var, e.Msg.Event.Value)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// StateTuples returns the distinct state tuples present in the
// lattice, sorted, using the given variable order — convenient for
// comparing against the paper's figures.
func (l *Lattice) StateTuples(varOrder []string) []string {
	seen := map[string]bool{}
	for _, n := range l.nodes {
		seen[n.Cut.State().Tuple(varOrder)] = true
	}
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// NewCut assembles a Cut from explicit counts and state. It is
// intended for incremental analyzers (predict.Online) that maintain
// cut frontiers themselves; counts and state must be mutually
// consistent for the computation the cut will be used with. The
// predict analyzers intern their cut clocks nowhere, so compare the
// counts of such a cut by value (clock.Equal, Key), not by Ref.
func NewCut(counts clock.Ref, state logic.State) Cut {
	return Cut{counts: counts, state: state}
}

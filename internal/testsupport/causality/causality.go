// Package causality computes the causal dependency relation ≺ of §2.2
// directly from its definition, given a complete multithreaded
// execution M (the full, globally ordered event list). It exists as the
// independent ground truth against which Algorithm A's vector clocks
// are verified (Theorem 3), and to enumerate linear extensions of the
// relevant causality ⊳ for cross-checking the computation lattice.
//
// The construction is deliberately the naive transitive closure of the
// two generating rules:
//
//  1. e_i^k ≺ e_i^l when k < l (program order), and
//  2. e <x e' with at least one of e, e' a write (variable order),
//
// so that it shares no code — and no potential bugs — with the MVC
// implementation it checks. It is part of the test-support tree: only
// tests and the latticecheck harness import it.
package causality

import (
	"sort"

	"gompax/internal/event"
)

// bitset is a fixed-capacity bit vector over event positions.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i/64] |= 1 << (i % 64) }
func (b bitset) get(i int) bool { return b[i/64]&(1<<(i%64)) != 0 }

// orInto sets b |= other.
func (b bitset) orInto(other bitset) {
	for i := range b {
		b[i] |= other[i]
	}
}

// Order is the computed partial order ≺ over an execution's events.
// Events are identified by their position (0-based) in the execution.
type Order struct {
	events []event.Event
	// pred[j] holds the set of positions i with events[i] ≺ events[j]
	// (strict precedence, excluding j itself).
	pred []bitset
}

// Build computes ≺ for the execution given in observed order. The
// events must be sorted by Seq (the order they occurred in M); Build
// verifies this and panics otherwise, since a misordered input would
// silently produce a wrong ground truth.
func Build(events []event.Event) *Order {
	for i := 1; i < len(events); i++ {
		if events[i].Seq < events[i-1].Seq {
			panic("causality: events not in execution order")
		}
	}
	n := len(events)
	o := &Order{events: events, pred: make([]bitset, n)}
	for j := range o.pred {
		o.pred[j] = newBitset(n)
	}

	// Direct edges, scanned left to right. Because we process events in
	// execution order and accumulate each event's full predecessor set
	// before any later event links to it, adding pred[i] ∪ {i} into
	// pred[j] for each direct edge i→j yields the transitive closure in
	// one pass: any causal chain is monotone in execution order.
	lastOfThread := map[int]int{}    // thread -> last event position
	lastWriteOf := map[string]int{}  // var -> last write position
	accessesOf := map[string][]int{} // var -> all access positions so far

	for j, e := range events {
		// Program order: previous event of the same thread.
		if i, ok := lastOfThread[e.Thread]; ok {
			o.addEdge(i, j)
		}
		lastOfThread[e.Thread] = j

		if e.Kind == event.Read {
			// A read causally depends on the last write of x (and,
			// transitively, on everything before it). Reads do not
			// depend on prior reads.
			if i, ok := lastWriteOf[e.Var]; ok {
				o.addEdge(i, j)
			}
			accessesOf[e.Var] = append(accessesOf[e.Var], j)
		} else if e.Kind.IsWrite() {
			// A write causally depends on every prior access of x.
			for _, i := range accessesOf[e.Var] {
				o.addEdge(i, j)
			}
			if i, ok := lastWriteOf[e.Var]; ok {
				o.addEdge(i, j)
			}
			lastWriteOf[e.Var] = j
			// Later writes depend on all earlier accesses transitively
			// through this write, so the access list can be reset.
			accessesOf[e.Var] = accessesOf[e.Var][:0]
			accessesOf[e.Var] = append(accessesOf[e.Var], j)
		}
	}
	return o
}

func (o *Order) addEdge(i, j int) {
	o.pred[j].orInto(o.pred[i])
	o.pred[j].set(i)
}

// Len returns the number of events.
func (o *Order) Len() int { return len(o.events) }

// Event returns the event at position i.
func (o *Order) Event(i int) event.Event { return o.events[i] }

// Precedes reports events[i] ≺ events[j] (strict).
func (o *Order) Precedes(i, j int) bool { return o.pred[j].get(i) }

// Concurrent reports events[i] || events[j].
func (o *Order) Concurrent(i, j int) bool {
	return i != j && !o.Precedes(i, j) && !o.Precedes(j, i)
}

// RelevantCount implements the ground truth for Requirement (a) of the
// paper: the number of relevant events of thread j that causally
// precede events[pos], including events[pos] itself when it belongs to
// thread j and is relevant. (By the definition of (e_i^k], the
// self-inclusion applies to the event's own thread.)
func (o *Order) RelevantCount(pos, j int) uint64 {
	var n uint64
	for i := range o.events {
		if o.events[i].Thread == j && o.events[i].Relevant && o.Precedes(i, pos) {
			n++
		}
	}
	e := o.events[pos]
	if e.Thread == j && e.Relevant {
		n++
	}
	return n
}

// MostRecentAccess returns the position of the most recent event at or
// before pos that accessed x, or -1.
func (o *Order) MostRecentAccess(pos int, x string) int {
	for i := pos; i >= 0; i-- {
		if e := o.events[i]; e.Kind.IsAccess() && e.Var == x {
			return i
		}
	}
	return -1
}

// MostRecentWrite returns the position of the most recent event at or
// before pos that wrote x, or -1.
func (o *Order) MostRecentWrite(pos int, x string) int {
	for i := pos; i >= 0; i-- {
		if e := o.events[i]; e.Kind.IsWrite() && e.Var == x {
			return i
		}
	}
	return -1
}

// Relevant returns the positions of relevant events in execution order.
func (o *Order) Relevant() []int {
	var out []int
	for i, e := range o.events {
		if e.Relevant {
			out = append(out, i)
		}
	}
	return out
}

// RelevantOrder projects ≺ onto the relevant events, yielding the
// relevant causality ⊳ of §2.3 as an explicit DAG over the relevant
// positions (indices into the slice returned by Relevant).
func (o *Order) RelevantOrder() *DAG {
	rel := o.Relevant()
	d := &DAG{n: len(rel), adj: make([]bitset, len(rel))}
	for a := range rel {
		d.adj[a] = newBitset(len(rel))
		for b := range rel {
			if o.Precedes(rel[a], rel[b]) {
				d.adj[a].set(b)
			}
		}
	}
	return d
}

// DAG is a partial order over n elements given by its full precedence
// relation.
type DAG struct {
	n   int
	adj []bitset // adj[a].get(b) means a ≺ b
}

// Len returns the number of elements.
func (d *DAG) Len() int { return d.n }

// Precedes reports a ≺ b.
func (d *DAG) Precedes(a, b int) bool { return d.adj[a].get(b) }

// LinearExtensions enumerates every linearization of the partial order,
// calling fn with each (the slice is reused; copy it to retain). It
// stops early if fn returns false or after limit extensions when
// limit > 0. It returns the number of extensions produced. Each
// linearization is one "multithreaded run" of §2.2.
func (d *DAG) LinearExtensions(limit int, fn func(perm []int) bool) int {
	indeg := make([]int, d.n)
	for a := 0; a < d.n; a++ {
		for b := 0; b < d.n; b++ {
			if d.Precedes(a, b) {
				indeg[b]++
			}
		}
	}
	perm := make([]int, 0, d.n)
	used := make([]bool, d.n)
	count := 0
	stop := false
	var rec func()
	rec = func() {
		if stop {
			return
		}
		if len(perm) == d.n {
			count++
			if !fn(perm) || (limit > 0 && count >= limit) {
				stop = true
			}
			return
		}
		for v := 0; v < d.n; v++ {
			if used[v] || indeg[v] != 0 {
				continue
			}
			used[v] = true
			perm = append(perm, v)
			for w := 0; w < d.n; w++ {
				if d.Precedes(v, w) {
					indeg[w]--
				}
			}
			rec()
			for w := 0; w < d.n; w++ {
				if d.Precedes(v, w) {
					indeg[w]++
				}
			}
			perm = perm[:len(perm)-1]
			used[v] = false
			if stop {
				return
			}
		}
	}
	rec()
	return count
}

// CountLinearExtensions returns the number of linearizations, up to
// limit when limit > 0.
func (d *DAG) CountLinearExtensions(limit int) int {
	return d.LinearExtensions(limit, func([]int) bool { return true })
}

// MinimalEdges returns the transitive reduction's edge list (useful for
// rendering the computation as a Hasse diagram).
func (d *DAG) MinimalEdges() [][2]int {
	var edges [][2]int
	for a := 0; a < d.n; a++ {
		for b := 0; b < d.n; b++ {
			if !d.Precedes(a, b) {
				continue
			}
			covered := false
			for c := 0; c < d.n && !covered; c++ {
				if c != a && c != b && d.Precedes(a, c) && d.Precedes(c, b) {
					covered = true
				}
			}
			if !covered {
				edges = append(edges, [2]int{a, b})
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	return edges
}

package clock

import (
	"fmt"
	"sync/atomic"
)

// Repr selects the storage substrate a Table builds its nodes on. The
// handle type (Ref) and every package-level operation are
// representation-agnostic: the digest, Key, Sum and all comparison
// verdicts are pure functions of the clock *value*, so flat- and
// tree-backed nodes interoperate freely — they may even co-exist
// inside one table around an auto promotion.
type Repr uint8

const (
	// ReprAuto starts flat and promotes the table to the tree substrate
	// the first time a value's significant length crosses the table's
	// threshold. The zero value, so untouched callers scale to
	// deep-thread traces without configuration.
	ReprAuto Repr = iota
	// ReprFlat always uses the chunked flat spine: lowest constant
	// factors at the paper's scale (a handful of threads).
	ReprFlat
	// ReprTree always uses the radix trie: O(changed-subtree) Tick and
	// Join on wide vectors, at the cost of one pointer hop per level.
	ReprTree
)

func (r Repr) String() string {
	switch r {
	case ReprFlat:
		return "flat"
	case ReprTree:
		return "tree"
	default:
		return "auto"
	}
}

// ParseRepr parses a -clock-repr flag value: "flat", "tree" or "auto"
// (the empty string means auto).
func ParseRepr(s string) (Repr, error) {
	switch s {
	case "auto", "":
		return ReprAuto, nil
	case "flat":
		return ReprFlat, nil
	case "tree":
		return ReprTree, nil
	}
	return ReprAuto, fmt.Errorf("clock: unknown representation %q (want flat, tree or auto)", s)
}

// DefaultAutoThreshold is the significant length past which an auto
// table promotes to the tree substrate. Below ~64 components the flat
// spine copy (one pointer per chunk per Tick) is cheaper than the
// trie's path copy; past it the spine dominates allocation.
const DefaultAutoThreshold = 64

// defaultRepr is the process-wide representation used by NewTable,
// settable once from the -clock-repr flag before tracers start.
var defaultRepr atomic.Uint32

// DefaultRepr returns the process-wide default representation.
func DefaultRepr() Repr { return Repr(defaultRepr.Load()) }

// SetDefaultRepr sets the representation NewTable uses. Tables created
// before the call keep the substrate they were created with.
func SetDefaultRepr(r Repr) { defaultRepr.Store(uint32(r)) }

// Options configures a Table's substrate.
type Options struct {
	// Repr picks the storage substrate (default ReprAuto).
	Repr Repr
	// AutoThreshold overrides the auto promotion threshold
	// (0 means DefaultAutoThreshold). Ignored unless Repr is ReprAuto.
	AutoThreshold int
}

// representation is the internal substrate interface: one stateless
// implementation per Repr value, responsible for *building* interned
// nodes. Only construction dispatches through it — comparisons are
// package-level functions on Ref with same-substrate fast paths and a
// chunk-generic fallback, so mixed-substrate values always compare
// correctly.
type representation interface {
	kind() Repr
	// intern builds the canonical node for the normalized components
	// comps[:n] (n ≥ 1, comps[n-1] != 0).
	intern(t *Table, comps []uint64, n int) Ref
	// set builds r with component i raised to x (x > r.Get(i)); n is
	// the resulting significant length.
	set(t *Table, r Ref, i int, x uint64, n int) Ref
	// join builds the pointwise maximum of a and b for the general
	// case: neither side zero, neither dominating; n is the larger
	// significant length.
	join(t *Table, a, b Ref, n int) Ref
}

// flatOps is the chunked flat-spine substrate: a node holds one
// pointer per chunk, and construction copies the spine plus the
// touched chunk, sharing every other chunk with its inputs.
type flatOps struct{}

func (flatOps) kind() Repr { return ReprFlat }

func (flatOps) intern(t *Table, comps []uint64, n int) Ref {
	nc := (n + chunkSize - 1) >> chunkShift
	chunks := make([]*chunk, nc)
	var digest, sum uint64
	for ci := 0; ci < nc; ci++ {
		c := &chunk{}
		base := ci << chunkShift
		for k := 0; k < chunkSize && base+k < n; k++ {
			x := comps[base+k]
			c[k] = x
			digest ^= contrib(base+k, x)
			sum += x
		}
		chunks[ci] = c
	}
	return t.intern(&node{flat: chunks, n: n, digest: digest, sum: sum})
}

func (flatOps) set(t *Table, r Ref, i int, x uint64, n int) Ref {
	return t.intern(flatSet(r, i, x, n))
}

// flatSet builds, without interning, the flat node for r with
// component i raised to x; n is the resulting significant length.
func flatSet(r Ref, i int, x uint64, n int) *node {
	old := r.Get(i)
	nc := (n + chunkSize - 1) >> chunkShift
	chunks := make([]*chunk, nc)
	for ci := 0; ci < nc; ci++ {
		chunks[ci] = r.chunkAt(ci)
	}
	ci := i >> chunkShift
	c := *chunks[ci] // copy-on-write: one chunk copied, the rest shared
	c[i&(chunkSize-1)] = x
	chunks[ci] = &c
	var digest, sum uint64
	if r.p != nil {
		digest, sum = r.p.digest, r.p.sum
	}
	digest ^= contrib(i, old) ^ contrib(i, x)
	sum += x - old
	return &node{flat: chunks, n: n, digest: digest, sum: sum}
}

func (flatOps) join(t *Table, a, b Ref, n int) Ref {
	nc := (n + chunkSize - 1) >> chunkShift
	chunks := make([]*chunk, nc)
	digest, sum := a.p.digest, a.p.sum
	for ci := 0; ci < nc; ci++ {
		ca, cb := a.chunkAt(ci), b.chunkAt(ci)
		if ca == cb {
			chunks[ci] = ca
			continue
		}
		fromA, fromB := true, true
		var m chunk
		base := ci << chunkShift
		for k := 0; k < chunkSize; k++ {
			if ca[k] >= cb[k] {
				m[k] = ca[k]
				if ca[k] > cb[k] {
					fromB = false
				}
			} else {
				m[k] = cb[k]
				fromA = false
				digest ^= contrib(base+k, ca[k]) ^ contrib(base+k, cb[k])
				sum += cb[k] - ca[k]
			}
		}
		switch {
		case fromA:
			chunks[ci] = ca
		case fromB:
			chunks[ci] = cb
		default:
			c := m
			chunks[ci] = &c
		}
	}
	return t.intern(&node{flat: chunks, n: n, digest: digest, sum: sum})
}

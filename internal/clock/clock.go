// Package clock provides the immutable, hash-consed clock substrate
// the whole gompax pipeline runs on: a clock value is a Ref — a
// pointer-sized handle to an interned, normalized vector-clock node —
// rather than a mutable []uint64 that every layer defensively clones.
//
// The design follows the observation of tree clocks (Mathur et al.,
// "A Tree Clock Data Structure for Causal Orderings", ASPLOS 2022)
// and optimal vector clocks (Zheng & Garg, 2019) that vector-time
// operations touch few components per event, so the component work
// per event can be bounded by the number of *changed* components:
//
//   - Storage is a flat spine of chunks (8 components per chunk) and
//     persistent: Tick and Join build the successor value by copying
//     the spine (one pointer per chunk) and the chunks that change,
//     sharing the rest. A child thread's clock after Spawn shares all
//     chunks with the parent.
//   - Clock values are interned in a Table: at most one canonical
//     node per value per table, so within one table pointer identity
//     is value identity. Leq/Less/Equal/Compare start with a pointer
//     test and also shortcut over shared chunks. The package-level Tick
//     and New build a value outside any table, for a consumer that
//     scopes value identity itself (the lattice explorer, per level)
//     or never meets a value twice (a wire receiver).
//   - A value that fits one chunk is one allocation: its node, chunk
//     and one-entry spine share a block.
//   - Each node carries a precomputed 64-bit digest, maintained
//     incrementally (the digest is a XOR of per-component mixes, so a
//     Tick updates it in O(1)). Consumers use the digest for shard
//     selection and hash buckets instead of re-hashing vectors; the
//     digest is a pure function of the value, so differing digests
//     prove inequality even across tables.
//
// Values are normalized: trailing zero components are dropped, and the
// zero Ref is the all-zeros clock. Normalization makes clocks that
// compare Equal structurally identical regardless of how many implicit
// zero components they were built with, mirroring vc.VC's Hash/Key
// semantics.
//
// Refs are safe for concurrent use (they are immutable); Tables are
// internally sharded by digest so concurrent interning into a shared
// table (Global is process-wide) does not serialize on one lock. The
// mutable reference implementation remains package vc; package clock
// is differentially tested against it (see
// internal/lattice/latticecheck).
package clock

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"gompax/internal/vc"
)

// chunkShift selects 8 components per chunk: wide enough that the
// paper's examples (2-6 threads) fit in one chunk, narrow enough that
// copy-on-write on wide benchmark lattices shares most of the vector.
const chunkShift = 3

const chunkSize = 1 << chunkShift

// chunk is one fixed-size block of clock components. Chunks are
// immutable after construction, so distinct nodes may alias them.
type chunk [chunkSize]uint64

// zeroChunk is shared by every node that spans a gap of all-zero
// components. Safe to alias because chunks are never mutated.
var zeroChunk = &chunk{}

// node is one clock value: a spine of ceil(n/chunkSize) chunk
// pointers, where n is the significant length (the last component is
// nonzero) and components beyond n are zero. digest and sum are
// functions of the value, kept so comparisons can reject early.
type node struct {
	chunks []*chunk
	n      int
	digest uint64
	sum    uint64
}

// nchunks returns the spine length of a value of significant length n.
func nchunks(n int) int { return (n + chunkSize - 1) >> chunkShift }

// Ref is an immutable clock value: a handle to an interned node. The
// zero Ref is the all-zeros clock. Refs are comparable; within one
// Table, ref equality (pointer equality) coincides with value
// equality, so Refs from a single table may be used as map keys.
// Across tables, == may report false for equal values; use Equal.
type Ref struct {
	p *node
}

// mix hashes one (index, value) pair with a splitmix64-style finalizer.
// The node digest is the XOR of mix over all nonzero components, which
// makes it order-independent and incrementally updatable: changing one
// component XORs out the old contribution and XORs in the new one.
func mix(i int, x uint64) uint64 {
	z := uint64(i+1)*0x9e3779b97f4a7c15 + x
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// contrib is a component's digest contribution; zero components
// contribute nothing, so normalization cannot change the digest.
func contrib(i int, x uint64) uint64 {
	if x == 0 {
		return 0
	}
	return mix(i, x)
}

// Len returns the number of significant components. Components at or
// beyond Len are implicitly zero; the last significant one is nonzero.
func (r Ref) Len() int {
	if r.p == nil {
		return 0
	}
	return r.p.n
}

// Get returns V[i], treating components beyond Len as 0.
func (r Ref) Get(i int) uint64 {
	if r.p == nil || i < 0 || i >= r.p.n {
		return 0
	}
	return r.p.chunks[i>>chunkShift][i&(chunkSize-1)]
}

// IsZero reports whether the clock is all zeros.
func (r Ref) IsZero() bool { return r.p == nil }

// Digest returns the precomputed 64-bit digest. It is a pure function
// of the clock value: equal values have equal digests (even across
// tables), and differing digests prove differing values. The zero
// clock's digest is 0.
func (r Ref) Digest() uint64 {
	if r.p == nil {
		return 0
	}
	return r.p.digest
}

// Sum returns the total number of events counted by the clock. For a
// clock attached to a consistent cut this is the cut's lattice level.
// Precomputed, so it is O(1).
func (r Ref) Sum() uint64 {
	if r.p == nil {
		return 0
	}
	return r.p.sum
}

// chunkAt returns the ci'th chunk, or the shared zero chunk beyond the
// clock's storage.
func (r Ref) chunkAt(ci int) *chunk {
	if r.p == nil || ci >= len(r.p.chunks) {
		return zeroChunk
	}
	return r.p.chunks[ci]
}

// VC materializes the clock as a mutable vc.VC of length Len. The
// result is fresh and safe to mutate.
func (r Ref) VC() vc.VC {
	if r.p == nil {
		return nil
	}
	out := make(vc.VC, r.p.n)
	for i := range out {
		out[i] = r.p.chunks[i>>chunkShift][i&(chunkSize-1)]
	}
	return out
}

// Key returns the compact normalized string key, identical to
// vc.VC.Key() of the same value. Unlike Digest it is collision-free;
// unlike the Ref itself it is stable across tables and processes.
func (r Ref) Key() string {
	n := r.Len()
	var b strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", r.Get(i))
	}
	return b.String()
}

// String renders the clock in the paper's tuple notation, e.g.
// "(1,2)". Trailing zeros are normalized away, so a clock built as
// (1,0) renders "(1)".
func (r Ref) String() string {
	var b strings.Builder
	b.WriteByte('(')
	n := r.Len()
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", r.Get(i))
	}
	b.WriteByte(')')
	return b.String()
}

// Equal reports whether a and b denote the same clock value. Within
// one table this is the pointer test; across tables it falls back to
// a digest comparison (differing digests prove inequality) and then a
// chunk comparison that skips shared chunks.
func Equal(a, b Ref) bool {
	if a.p == b.p {
		return true
	}
	if a.p == nil || b.p == nil {
		return false // normalized: a non-nil node has n >= 1
	}
	if a.p.digest != b.p.digest || a.p.n != b.p.n || a.p.sum != b.p.sum {
		return false
	}
	return nodesEqual(a.p, b.p)
}

// Leq reports whether a ≤ b pointwise (missing components are zero).
func Leq(a, b Ref) bool {
	if a.p == b.p || a.p == nil {
		return true
	}
	if b.p == nil {
		return false
	}
	if a.p.n > b.p.n {
		return false // a's last significant component exceeds b's zero
	}
	if a.p.sum > b.p.sum {
		return false // pointwise ≤ implies sum ≤
	}
	for ci, ca := range a.p.chunks {
		cb := b.p.chunks[ci]
		if ca == cb {
			continue
		}
		for k := 0; k < chunkSize; k++ {
			if ca[k] > cb[k] {
				return false
			}
		}
	}
	return true
}

// Less reports whether a < b, i.e. a ≤ b and a ≠ b.
func Less(a, b Ref) bool {
	if a.p == b.p {
		return false
	}
	return Leq(a, b) && !Equal(a, b)
}

// Concurrent reports whether neither a ≤ b nor b ≤ a holds.
func Concurrent(a, b Ref) bool {
	if a.p == b.p {
		return false
	}
	return !Leq(a, b) && !Leq(b, a)
}

// Precedes implements the causality test of Theorem 3: for two
// distinct messages <e, i, V> and <e', i', V'> emitted by Algorithm A,
// e ⊲ e' iff V[i] ≤ V'[i], where i is the thread of the *earlier*
// candidate message.
func Precedes(a Ref, i int, b Ref) bool {
	return a.Get(i) <= b.Get(i)
}

// Compare orders clocks component-lexicographically: the first index
// where the values differ decides. This is a total order consistent
// with Equal (Compare == 0 iff Equal), used for canonical violation
// ordering across explorer modes.
func Compare(a, b Ref) int {
	if a.p == b.p {
		return 0
	}
	nc := nchunks(max(a.Len(), b.Len()))
	for ci := 0; ci < nc; ci++ {
		ca, cb := a.chunkAt(ci), b.chunkAt(ci)
		if ca == cb {
			continue
		}
		for k := 0; k < chunkSize; k++ {
			if ca[k] != cb[k] {
				if ca[k] < cb[k] {
					return -1
				}
				return 1
			}
		}
	}
	return 0
}

// Diff calls f(i, delta) for every component where cur exceeds prev,
// in ascending index order, skipping shared chunks wholesale. It
// reports false (possibly after some calls) if prev has a component
// exceeding cur's — i.e. cur is not an update of prev — in which case
// the caller should fall back to treating cur as a fresh clock. This
// is the wire delta encoder's workhorse: per-thread message clocks are
// pointwise monotone, so Diff normally succeeds and visits only the
// components the event actually advanced.
func Diff(prev, cur Ref, f func(i int, delta uint64)) bool {
	if prev.p == cur.p {
		return true
	}
	if prev.Len() > cur.Len() {
		return false
	}
	for ci := 0; ci < nchunks(cur.Len()); ci++ {
		cp, cc := prev.chunkAt(ci), cur.chunkAt(ci)
		if cp == cc {
			continue
		}
		base := ci << chunkShift
		for k := 0; k < chunkSize; k++ {
			switch {
			case cc[k] > cp[k]:
				f(base+k, cc[k]-cp[k])
			case cc[k] < cp[k]:
				return false
			}
		}
	}
	return true
}

// tableShards bounds lock contention when concurrent sessions intern
// into one table; shard choice is by digest so it needs no
// coordination.
const tableShards = 32

type tableShard struct {
	mu      sync.Mutex
	buckets map[uint64][]*node // digest -> interned nodes
	_       [32]byte           // reduce false sharing between shards
}

// Table is an interning table: at most one canonical node per distinct
// clock value. Tables are typically scoped to one tracer, so interned
// values are reclaimed when the tracer is and Refs from a single table
// can serve directly as map keys. A table never evicts, so the lattice
// explorer interns no cut clock: a cut lives on one level, and the
// explorer keys each level by TickDigest and builds new cuts with the
// table-free Tick. A wire receiver interns nothing either (New). All
// methods are safe for concurrent use.
type Table struct {
	shards [tableShards]tableShard
	size   atomic.Int64
}

// NewTable returns an empty interning table.
func NewTable() *Table {
	t := &Table{}
	for i := range t.shards {
		t.shards[i].buckets = make(map[uint64][]*node)
	}
	mTables.Add(1)
	return t
}

// Size returns the number of distinct clock values interned so far.
func (t *Table) Size() int { return int(t.size.Load()) }

// nodesEqual compares two normalized nodes by value, shared chunks
// shortcut by pointer. Digest equality is assumed (bucket invariant).
func nodesEqual(x, y *node) bool {
	if x.n != y.n || x.sum != y.sum {
		return false
	}
	for ci, cx := range x.chunks {
		if cy := y.chunks[ci]; cx != cy && *cx != *cy {
			return false
		}
	}
	return true
}

// intern returns the canonical Ref for the candidate node, inserting
// it if the value is new. The candidate must be normalized (n >= 1,
// last component nonzero, zeros beyond n in the last chunk).
func (t *Table) intern(cand *node) Ref {
	s := &t.shards[cand.digest%tableShards]
	s.mu.Lock()
	for _, ex := range s.buckets[cand.digest] {
		if nodesEqual(ex, cand) {
			s.mu.Unlock()
			mHits.Inc()
			return Ref{ex}
		}
	}
	s.buckets[cand.digest] = append(s.buckets[cand.digest], cand)
	s.mu.Unlock()
	t.size.Add(1)
	mInterned.Inc()
	return Ref{cand}
}

// Intern returns the canonical Ref for the given components (trailing
// zeros are normalized away; the slice is copied, not retained).
func (t *Table) Intern(comps []uint64) Ref {
	n := normLen(comps)
	if n == 0 {
		return Ref{}
	}
	return t.intern(buildNode(comps[:n]))
}

// New returns the clock with the given components, like Intern but
// interned nowhere (trailing zeros are normalized away; the slice is
// copied, not retained). A wire receiver builds every decoded clock
// this way: Theorem 3 makes the clocks of one session's messages
// pairwise distinct, so a session table would never hit. Compare the
// result with Equal, not ==.
func New(comps []uint64) Ref {
	n := normLen(comps)
	if n == 0 {
		return Ref{}
	}
	return Ref{buildNode(comps[:n])}
}

// normLen returns the length of comps without its trailing zeros.
func normLen(comps []uint64) int {
	n := len(comps)
	for n > 0 && comps[n-1] == 0 {
		n--
	}
	return n
}

// block is a single-chunk clock in one allocation: the node, its
// chunk and its one-entry spine. The block points only into itself,
// so a later value that shares its chunk keeps no other value alive.
type block struct {
	node  node
	chunk chunk
	spine [1]*chunk
}

// newBlock returns a block whose spine holds its own chunk.
func newBlock() *block {
	b := &block{}
	b.spine[0] = &b.chunk
	b.node.chunks = b.spine[:]
	return b
}

// buildNode builds the node for the normalized components comps
// (comps[len-1] != 0) in fresh chunks: one block when they fit one
// chunk, else the node, its spine and one array of chunks.
func buildNode(comps []uint64) *node {
	var nd *node
	if len(comps) <= chunkSize {
		nd = &newBlock().node
	} else {
		nc := nchunks(len(comps))
		cs := make([]chunk, nc)
		nd = &node{chunks: make([]*chunk, nc)}
		for ci := range cs {
			nd.chunks[ci] = &cs[ci]
		}
	}
	for ci, c := range nd.chunks {
		base := ci << chunkShift
		copy(c[:], comps[base:])
		for k, x := range c {
			nd.digest ^= contrib(base+k, x)
			nd.sum += x
		}
	}
	nd.n = len(comps)
	return nd
}

// Tick returns the clock with component i incremented by one: step 1
// of Algorithm A, and lattice.Computation.Advance. One spine and one
// chunk copy, an incremental digest update, and an intern lookup; a
// clock that fits one chunk is built in one allocation.
func (t *Table) Tick(r Ref, i int) Ref {
	return t.intern(tickNode(r, i))
}

// Tick returns r with component i incremented by one, like Table.Tick,
// but interned nowhere: the node shares every chunk but one with r.
// The result belongs to no table, so compare it with Equal, not ==.
// The lattice explorer builds each new cut of a level this way;
// TickDigest and IsTick find an existing one first.
func Tick(r Ref, i int) Ref {
	return Ref{tickNode(r, i)}
}

// tickNode builds, without interning, the node for r with component i
// incremented: the spine is copied, the chunk holding i is copied and
// raised, and every other chunk is shared with r. A value that fits
// one chunk is one block. A wider one takes the node, its spine and
// the raised chunk as three objects: were the chunk allocated with the
// node, a later value sharing that chunk would keep the node's spine
// alive, and through it the chunks of older values, without bound.
func tickNode(r Ref, i int) *node {
	old := r.Get(i)
	n := max(r.Len(), i+1)
	ci := i >> chunkShift
	var nd *node
	var c *chunk
	if n <= chunkSize {
		b := newBlock()
		nd, c = &b.node, &b.chunk
	} else {
		nd, c = &node{chunks: make([]*chunk, nchunks(n))}, &chunk{}
		for k := range nd.chunks {
			nd.chunks[k] = r.chunkAt(k)
		}
		nd.chunks[ci] = c
	}
	*c = *r.chunkAt(ci)
	c[i&(chunkSize-1)] = old + 1
	nd.n, nd.digest, nd.sum = n, TickDigest(r, i), r.Sum()+1
	return nd
}

// TickDigest returns the digest of r with component i incremented by
// one without building that value: O(1) from r's digest, since raising
// one component swaps one term of the XOR. A zero component
// contributes nothing, so its old term is contrib, not mix.
func TickDigest(r Ref, i int) uint64 {
	old := r.Get(i)
	return r.Digest() ^ contrib(i, old) ^ mix(i, old+1)
}

// IsTick reports whether c equals r with component i incremented by
// one, without building that value. It rejects on length, sum and
// digest first, then walks the chunks of both values, skipping shared
// ones.
func IsTick(c, r Ref, i int) bool {
	if c.p == nil {
		return false
	}
	n := max(r.Len(), i+1)
	if c.p.n != n || c.p.sum != r.Sum()+1 || c.p.digest != TickDigest(r, i) {
		return false
	}
	ci := i >> chunkShift
	for k, cc := range c.p.chunks {
		rc := r.chunkAt(k)
		if k == ci {
			want := *rc
			want[i&(chunkSize-1)]++
			if *cc != want {
				return false
			}
		} else if cc != rc && *cc != *rc {
			return false
		}
	}
	return true
}

// Join returns the canonical Ref for the pointwise maximum max{a, b}.
// When one side dominates, the dominating Ref itself is returned with
// no allocation — this makes Algorithm A's write step (V_w = V_a =
// V_i) and Spawn pure structure sharing. In the general case the
// result shares every chunk it can with a or b, and the digest is
// updated incrementally from a's.
func (t *Table) Join(a, b Ref) Ref {
	if a.p == b.p || b.p == nil || Leq(b, a) {
		return a
	}
	if a.p == nil || Leq(a, b) {
		return b
	}
	return t.intern(joinNode(a, b))
}

// joinNode builds, without interning, the pointwise maximum of a and b
// for the general case: neither side zero, neither dominating. A chunk
// equal to one side's is shared; only chunks mixing both are fresh.
func joinNode(a, b Ref) *node {
	n := max(a.Len(), b.Len())
	chunks := make([]*chunk, nchunks(n))
	digest, sum := a.p.digest, a.p.sum
	for ci := range chunks {
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
			c := m // m stays on the stack unless the chunk is new
			chunks[ci] = &c
		}
	}
	return &node{chunks: chunks, n: n, digest: digest, sum: sum}
}

// global is the process-wide convenience table used by tests, tools
// and trace loading; pipeline components scope their own tables.
var global = NewTable()

// Global returns the process-wide interning table.
func Global() *Table { return global }

// Of interns the given components into the global table.
func Of(comps ...uint64) Ref { return global.Intern(comps) }

// FromVC interns a vc.VC into the global table.
func FromVC(v vc.VC) Ref { return global.Intern(v) }

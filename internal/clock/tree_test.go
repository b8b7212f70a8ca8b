package clock

import (
	"fmt"
	"math/rand"
	"testing"
)

// randVec draws a vector whose length is biased toward the substrate
// boundaries: chunk edges, the promotion threshold, and trie height
// changes (8, 64, 512 components). Sparse vectors exercise nil
// subtrees; appended trailing zeros exercise normalization.
func randVec(rng *rand.Rand) []uint64 {
	lens := []int{0, 1, 2, 7, 8, 9, 15, 16, 63, 64, 65, 127, 128, 255, 511, 512, 513, 1024, 1200}
	n := lens[rng.Intn(len(lens))]
	if rng.Intn(3) == 0 {
		n = rng.Intn(1300)
	}
	v := make([]uint64, 0, n+4)
	density := rng.Float64()
	for i := 0; i < n; i++ {
		if rng.Float64() < density {
			v = append(v, uint64(rng.Intn(50)))
		} else {
			v = append(v, 0)
		}
	}
	for rng.Intn(2) == 0 {
		v = append(v, 0) // explicit trailing zeros must normalize away
	}
	return v
}

// TestReprDigestContract is the digest-contract invariance property:
// flat and tree representations of the same vector must have equal
// Digest/Sum/Len/Key, and every comparison predicate must agree — on
// same-substrate pairs and on cross-substrate pairs — across 10k
// random vectors including trailing-zero normalization edges.
func TestReprDigestContract(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ft := NewTableOpts(Options{Repr: ReprFlat})
	tt := NewTableOpts(Options{Repr: ReprTree})
	pairs := 10000
	if testing.Short() {
		pairs = 1000
	}
	for p := 0; p < pairs; p++ {
		av, bv := randVec(rng), randVec(rng)
		if rng.Intn(4) == 0 {
			bv = append([]uint64(nil), av...) // force equal and near-equal pairs
			if len(bv) > 0 && rng.Intn(2) == 0 {
				bv[rng.Intn(len(bv))] += uint64(rng.Intn(3))
			}
		}
		af, bf := ft.Intern(av), ft.Intern(bv)
		at, bt := tt.Intern(av), tt.Intern(bv)
		for _, pair := range []struct{ f, tr Ref }{{af, at}, {bf, bt}} {
			if pair.f.Digest() != pair.tr.Digest() {
				t.Fatalf("pair %d: digest mismatch: flat %x tree %x", p, pair.f.Digest(), pair.tr.Digest())
			}
			if pair.f.Sum() != pair.tr.Sum() || pair.f.Len() != pair.tr.Len() {
				t.Fatalf("pair %d: sum/len mismatch", p)
			}
			if pair.f.Key() != pair.tr.Key() {
				t.Fatalf("pair %d: key mismatch: %q vs %q", p, pair.f.Key(), pair.tr.Key())
			}
			if !Equal(pair.f, pair.tr) {
				t.Fatalf("pair %d: cross-substrate Equal false for same value", p)
			}
		}
		// Every predicate must agree on the (flat,flat), (tree,tree)
		// and mixed-substrate orientations of the same value pair.
		type duo struct {
			name string
			a, b Ref
		}
		duos := []duo{{"flat", af, bf}, {"tree", at, bt}, {"flat-tree", af, bt}, {"tree-flat", at, bf}}
		base := duos[0]
		for _, d := range duos[1:] {
			if got, want := Leq(d.a, d.b), Leq(base.a, base.b); got != want {
				t.Fatalf("pair %d (%s): Leq=%v want %v", p, d.name, got, want)
			}
			if got, want := Leq(d.b, d.a), Leq(base.b, base.a); got != want {
				t.Fatalf("pair %d (%s): reverse Leq=%v want %v", p, d.name, got, want)
			}
			if got, want := Less(d.a, d.b), Less(base.a, base.b); got != want {
				t.Fatalf("pair %d (%s): Less=%v want %v", p, d.name, got, want)
			}
			if got, want := Concurrent(d.a, d.b), Concurrent(base.a, base.b); got != want {
				t.Fatalf("pair %d (%s): Concurrent=%v want %v", p, d.name, got, want)
			}
			if got, want := Compare(d.a, d.b), Compare(base.a, base.b); got != want {
				t.Fatalf("pair %d (%s): Compare=%v want %v", p, d.name, got, want)
			}
			if got, want := Equal(d.a, d.b), Equal(base.a, base.b); got != want {
				t.Fatalf("pair %d (%s): Equal=%v want %v", p, d.name, got, want)
			}
		}
	}
}

// TestReprOpEquivalence replays one random Intern/Tick/Join op
// sequence against a flat, a tree and an auto table; every
// intermediate value must agree across substrates.
func TestReprOpEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tables := []*Table{
		NewTableOpts(Options{Repr: ReprFlat}),
		NewTableOpts(Options{Repr: ReprTree}),
		NewTableOpts(Options{Repr: ReprAuto, AutoThreshold: 24}),
	}
	refs := make([][]Ref, len(tables))
	for i := range refs {
		refs[i] = []Ref{{}} // start from the zero clock
	}
	steps := 4000
	if testing.Short() {
		steps = 800
	}
	for s := 0; s < steps; s++ {
		switch k := len(refs[0]); rng.Intn(4) {
		case 0:
			v := randVec(rng)
			for ti, tb := range tables {
				refs[ti] = append(refs[ti], tb.Intern(v))
			}
		case 1, 2:
			j, i := rng.Intn(k), rng.Intn(600)
			for ti, tb := range tables {
				refs[ti] = append(refs[ti], tb.Tick(refs[ti][j], i))
			}
		default:
			j, l := rng.Intn(k), rng.Intn(k)
			for ti, tb := range tables {
				refs[ti] = append(refs[ti], tb.Join(refs[ti][j], refs[ti][l]))
			}
		}
		last := len(refs[0]) - 1
		f := refs[0][last]
		for ti := 1; ti < len(tables); ti++ {
			r := refs[ti][last]
			if f.Digest() != r.Digest() || f.Sum() != r.Sum() || !Equal(f, r) {
				t.Fatalf("step %d: table %d diverged: %s vs %s", s, ti, f, r)
			}
			if f.Key() != r.Key() {
				t.Fatalf("step %d: table %d key mismatch", s, ti)
			}
		}
	}
}

// TestAutoPromotion pins the auto-mode contract: tables start flat,
// promote one-way when a value's significant length crosses the
// threshold, and keep interoperating with their pre-promotion flat
// nodes.
func TestAutoPromotion(t *testing.T) {
	tb := NewTableOpts(Options{Repr: ReprAuto, AutoThreshold: 16})
	if got := tb.Repr(); got != ReprFlat {
		t.Fatalf("fresh auto table repr = %v, want flat", got)
	}
	small := tb.Intern([]uint64{1, 2, 3})
	if small.p.flat == nil {
		t.Fatalf("pre-promotion node should be flat-backed")
	}
	wide := tb.Tick(Ref{}, 40) // length 41 > 16: promotes
	if got := tb.Repr(); got != ReprTree {
		t.Fatalf("post-threshold repr = %v, want tree", got)
	}
	if wide.p.tree == nil {
		t.Fatalf("post-promotion node should be tree-backed")
	}
	// Mixed-substrate ops inside the promoted table stay correct.
	j := tb.Join(small, wide)
	if j.p.tree == nil {
		t.Fatalf("join after promotion should build tree nodes")
	}
	for i := 0; i < 41; i++ {
		want := small.Get(i)
		if w := wide.Get(i); w > want {
			want = w
		}
		if got := j.Get(i); got != want {
			t.Fatalf("join[%d] = %d, want %d", i, got, want)
		}
	}
	// Small values after promotion are tree-backed too, and re-interning
	// a pre-promotion value returns the existing flat canonical node.
	again := tb.Intern([]uint64{1, 2, 3})
	if again != small {
		t.Fatalf("re-intern after promotion should hit the flat canonical node")
	}
}

// TestReprDiffParity checks the wire delta workhorse: Diff must emit
// identical (index, delta) sequences and verdicts no matter which
// substrate backs prev and cur — including non-monotone pairs that
// must report false.
func TestReprDiffParity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ft := NewTableOpts(Options{Repr: ReprFlat})
	tt := NewTableOpts(Options{Repr: ReprTree})
	record := func(prev, cur Ref) (string, bool) {
		var b []byte
		ok := Diff(prev, cur, func(i int, d uint64) {
			b = fmt.Appendf(b, "%d+%d;", i, d)
		})
		return string(b), ok
	}
	for p := 0; p < 3000; p++ {
		pv := randVec(rng)
		cv := append([]uint64(nil), pv...)
		// Usually grow cur monotonically from prev; sometimes mutate
		// arbitrarily so decreases exercise the false path.
		for i := 0; i < rng.Intn(8); i++ {
			at := rng.Intn(1200)
			for len(cv) <= at {
				cv = append(cv, 0)
			}
			if rng.Intn(5) == 0 && cv[at] > 0 {
				cv[at]--
			} else {
				cv[at] += uint64(1 + rng.Intn(9))
			}
		}
		pf, cf := ft.Intern(pv), ft.Intern(cv)
		pt, ct := tt.Intern(pv), tt.Intern(cv)
		wantSeq, wantOK := record(pf, cf)
		for name, pair := range map[string][2]Ref{
			"tree":      {pt, ct},
			"flat-tree": {pf, ct},
			"tree-flat": {pt, cf},
		} {
			seq, ok := record(pair[0], pair[1])
			if ok != wantOK {
				t.Fatalf("pair %d (%s): Diff ok=%v want %v", p, name, ok, wantOK)
			}
			if ok && seq != wantSeq {
				t.Fatalf("pair %d (%s): Diff seq %q want %q", p, name, seq, wantSeq)
			}
		}
	}
}

// TestTreeShape pins the canonical trie geometry so substrate changes
// cannot silently shift the height/fanout contract the O(subtree)
// claims rest on.
func TestTreeShape(t *testing.T) {
	cases := []struct{ n, h int }{
		{1, 0}, {8, 0}, {9, 1}, {64, 1}, {65, 2}, {512, 2}, {513, 3}, {4096, 3}, {4097, 4},
	}
	for _, c := range cases {
		if got := treeHeight(c.n); got != c.h {
			t.Errorf("treeHeight(%d) = %d, want %d", c.n, got, c.h)
		}
	}
	tb := NewTableOpts(Options{Repr: ReprTree})
	r := tb.Tick(Ref{}, 1023) // single nonzero component at the far end
	if r.p.tree == nil {
		t.Fatalf("tree table built a non-tree node")
	}
	if got := r.Get(1023); got != 1 {
		t.Fatalf("Get(1023) = %d, want 1", got)
	}
	// A sparse vector keeps all-zero subtrees nil: the root of a
	// 1024-component clock with one nonzero chunk has one non-nil kid.
	nonNil := 0
	for _, k := range r.p.tree.kids {
		if k != nil {
			nonNil++
		}
	}
	if nonNil != 1 {
		t.Fatalf("sparse root has %d non-nil kids, want 1", nonNil)
	}
}

// TestTickProbe: the lattice explorer's probe-then-build trio agrees
// with Table.Tick on random refs on both substrates. TickDigest is the
// interned successor's digest; the table-free Tick builds an Equal
// value on the parent's substrate and interns nothing; IsTick accepts
// the successor from any table or substrate and rejects near misses,
// including a forged digest collision. The component raised is an
// existing one, a zero one below Len (old = 0 contributes nothing to
// the digest), or one at or beyond Len, which grows Len and may cross
// a chunk or trie-height boundary.
func TestTickProbe(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	iters := 4000
	if testing.Short() {
		iters = 800
	}
	for _, repr := range []Repr{ReprFlat, ReprTree} {
		tab := NewTableOpts(Options{Repr: repr})
		other := NewTableOpts(Options{Repr: ReprFlat + ReprTree - repr})
		kinds := [3]int{}
		collisions := 0
		for it := 0; it < iters; it++ {
			v := randVec(rng)
			r := tab.Intern(v)
			kind := rng.Intn(3)
			i := r.Len() + rng.Intn(80)
			switch {
			case kind == 0 && r.Len() > 0:
				i = rng.Intn(r.Len())
				for r.Get(i) == 0 {
					i = rng.Intn(r.Len())
				}
			case kind == 1:
				for k := 0; k < r.Len(); k++ {
					if r.Get(k) == 0 && rng.Intn(2) == 0 {
						i = k
						break
					}
				}
			}
			switch {
			case i >= r.Len():
				kinds[2]++
			case r.Get(i) == 0:
				kinds[1]++
			default:
				kinds[0]++
			}

			want := tab.Tick(r, i)
			if got := TickDigest(r, i); got != want.Digest() {
				t.Fatalf("%v it %d: TickDigest(r, %d) = %x, Tick digest %x", repr, it, i, got, want.Digest())
			}
			size := tab.Size()
			c := Tick(r, i)
			if tab.Size() != size {
				t.Fatalf("%v it %d: the table-free Tick interned into the table", repr, it)
			}
			if !Equal(c, want) || c.Len() != want.Len() || c.Sum() != want.Sum() || c.p == want.p {
				t.Fatalf("%v it %d: Tick(r, %d) = %v, want an uninterned %v", repr, it, i, c, want)
			}
			if r.p != nil && (c.p.tree != nil) != (r.p.tree != nil) {
				t.Fatalf("%v it %d: successor left the parent's substrate", repr, it)
			}
			for _, got := range []Ref{c, want, other.Intern(want.VC())} {
				if !IsTick(got, r, i) {
					t.Fatalf("%v it %d: IsTick rejects the successor %v of %v at %d", repr, it, got, r, i)
				}
			}

			j := rng.Intn(want.Len() + 2)
			if j == i {
				j++
			}
			twice := tab.Tick(want, i)
			negatives := []Ref{{}, r, twice, tab.Tick(r, j), other.Intern(twice.VC())}
			// The same length and sum, one unit moved from another
			// component to i.
			if w := want.VC(); len(w) > 1 {
				for k := 0; k < len(w)-1; k++ {
					if k != i && w[k] > 0 {
						w[k]--
						w[i]++
						negatives = append(negatives, other.Intern(w))
						break
					}
				}
			}
			for _, bad := range negatives {
				if IsTick(bad, r, i) {
					t.Fatalf("%v it %d: IsTick accepts %v as %v raised at %d", repr, it, bad, r, i)
				}
				if bad.Len() != want.Len() || bad.Sum() != want.Sum() {
					continue
				}
				// A digest collision: equal digest, length and sum,
				// different components.
				forged := *bad.p
				forged.digest = want.p.digest
				if IsTick(Ref{&forged}, r, i) {
					t.Fatalf("%v it %d: IsTick accepts a forged collision %v", repr, it, bad)
				}
				collisions++
			}
		}
		if collisions < iters/4 {
			t.Fatalf("%v: only %d forged collisions checked", repr, collisions)
		}
		for k, n := range kinds {
			if n < iters/10 {
				t.Fatalf("%v: only %d of %d cases raise a component of kind %d", repr, n, iters, k)
			}
		}
	}
}

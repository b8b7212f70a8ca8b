package clock

import (
	"fmt"
	"math/rand"
	"testing"

	"gompax/internal/vc"
)

// randVec draws a vector whose length is biased toward chunk edges and
// deep-thread widths (up to 1,300 components). Sparse vectors exercise
// runs of all-zero chunks; appended trailing zeros exercise
// normalization.
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

// refDigest is the digest contract computed from scratch: the XOR of
// mix over every nonzero component, whatever the vector's padding.
func refDigest(v vc.VC) uint64 {
	var d uint64
	for i, x := range v {
		d ^= contrib(i, x)
	}
	return d
}

// refLen is the significant length of v: trailing zeros do not count.
func refLen(v vc.VC) int {
	n := len(v)
	for n > 0 && v[n-1] == 0 {
		n--
	}
	return n
}

// refCompare is the component-lexicographic order Compare promises.
func refCompare(a, b vc.VC) int {
	for i := 0; i < max(len(a), len(b)); i++ {
		if x, y := a.Get(i), b.Get(i); x != y {
			if x < y {
				return -1
			}
			return 1
		}
	}
	return 0
}

// checkValue fails unless r denotes the value v: Digest, Sum, Len and
// Key all agree with the vc.VC reference.
func checkValue(t *testing.T, what string, r Ref, v vc.VC) {
	t.Helper()
	if r.Digest() != refDigest(v) {
		t.Fatalf("%s: digest %x, want %x", what, r.Digest(), refDigest(v))
	}
	if r.Sum() != v.Sum() || r.Len() != refLen(v) {
		t.Fatalf("%s: sum/len %d/%d, want %d/%d", what, r.Sum(), r.Len(), v.Sum(), refLen(v))
	}
	if r.Key() != v.Key() {
		t.Fatalf("%s: key %q, want %q", what, r.Key(), v.Key())
	}
}

// TestReprDigestContract is the digest-contract property on wide
// clocks: over 10k random vector pairs of up to 1,300 components,
// trailing-zero edges included, Digest/Sum/Len/Key match the vc.VC
// reference and every predicate agrees with it — on refs from one
// table (the pointer fast paths) and from two (the value paths).
func TestReprDigestContract(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	one, two := NewTable(), NewTable()
	pairs := 10000
	if testing.Short() {
		pairs = 1000
	}
	for p := 0; p < pairs; p++ {
		av, bv := vc.VC(randVec(rng)), vc.VC(randVec(rng))
		if rng.Intn(4) == 0 {
			bv = av.Clone() // force equal and near-equal pairs
			if len(bv) > 0 && rng.Intn(2) == 0 {
				bv[rng.Intn(len(bv))] += uint64(rng.Intn(3))
			}
		}
		a, b, b2 := one.Intern(av), one.Intern(bv), two.Intern(bv)
		checkValue(t, fmt.Sprintf("pair %d a", p), a, av)
		checkValue(t, fmt.Sprintf("pair %d b", p), b2, bv)
		for _, d := range []struct {
			name string
			b    Ref
		}{{"one table", b}, {"two tables", b2}} {
			if got, want := Equal(a, d.b), vc.Equal(av, bv); got != want {
				t.Fatalf("pair %d (%s): Equal=%v want %v", p, d.name, got, want)
			}
			if got, want := Leq(a, d.b), vc.LEQ(av, bv); got != want {
				t.Fatalf("pair %d (%s): Leq=%v want %v", p, d.name, got, want)
			}
			if got, want := Leq(d.b, a), vc.LEQ(bv, av); got != want {
				t.Fatalf("pair %d (%s): reverse Leq=%v want %v", p, d.name, got, want)
			}
			if got, want := Less(a, d.b), vc.Less(av, bv); got != want {
				t.Fatalf("pair %d (%s): Less=%v want %v", p, d.name, got, want)
			}
			if got, want := Concurrent(a, d.b), vc.Concurrent(av, bv); got != want {
				t.Fatalf("pair %d (%s): Concurrent=%v want %v", p, d.name, got, want)
			}
			if got, want := Compare(a, d.b), refCompare(av, bv); got != want {
				t.Fatalf("pair %d (%s): Compare=%d want %d", p, d.name, got, want)
			}
		}
	}
}

// TestReprOpEquivalence replays one random Intern/Tick/Join sequence
// on wide clocks against a vc.VC shadow: every intermediate value must
// equal the shadow's and be canonical in its table.
func TestReprOpEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tb := NewTable()
	refs, shadows := []Ref{{}}, []vc.VC{nil} // start from the zero clock
	steps := 4000
	if testing.Short() {
		steps = 800
	}
	for s := 0; s < steps; s++ {
		var r Ref
		var v vc.VC
		switch k := len(refs); rng.Intn(4) {
		case 0:
			v = randVec(rng)
			r = tb.Intern(v)
		case 1, 2:
			j, i := rng.Intn(k), rng.Intn(600)
			r = tb.Tick(refs[j], i)
			v = shadows[j].Clone()
			v.Inc(i)
		default:
			j, l := rng.Intn(k), rng.Intn(k)
			r = tb.Join(refs[j], refs[l])
			v = vc.Join(shadows[j], shadows[l])
		}
		checkValue(t, fmt.Sprintf("step %d", s), r, v)
		if tb.Intern(v) != r {
			t.Fatalf("step %d: %s is not the table's canonical node", s, r)
		}
		refs, shadows = append(refs, r), append(shadows, v)
	}
}

// TestReprDiffParity checks the wire delta workhorse on wide clocks:
// Diff must emit exactly the ascending (index, delta) pairs where cur
// exceeds prev, and report false on non-monotone pairs.
func TestReprDiffParity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tb := NewTable()
	for p := 0; p < 3000; p++ {
		pv := vc.VC(randVec(rng))
		cv := pv.Clone()
		// Usually grow cur monotonically from prev; sometimes mutate
		// arbitrarily so decreases exercise the false path.
		for i := 0; i < rng.Intn(8); i++ {
			at := rng.Intn(1200)
			if rng.Intn(5) == 0 && cv.Get(at) > 0 {
				cv[at]--
			} else {
				cv.Set(at, cv.Get(at)+uint64(1+rng.Intn(9)))
			}
		}
		var want []byte
		for i := 0; i < len(cv); i++ {
			if d := cv.Get(i); d > pv.Get(i) {
				want = fmt.Appendf(want, "%d+%d;", i, d-pv.Get(i))
			}
		}
		var got []byte
		ok := Diff(tb.Intern(pv), tb.Intern(cv), func(i int, d uint64) {
			got = fmt.Appendf(got, "%d+%d;", i, d)
		})
		if wantOK := vc.LEQ(pv, cv); ok != wantOK {
			t.Fatalf("pair %d: Diff ok=%v want %v", p, ok, wantOK)
		}
		if ok && string(got) != string(want) {
			t.Fatalf("pair %d: Diff seq %q want %q", p, got, want)
		}
	}
}

// TestTickProbe: the lattice explorer's probe-then-build trio agrees
// with Table.Tick on random wide refs. TickDigest is the interned
// successor's digest; the table-free Tick builds an Equal value and
// interns nothing; IsTick accepts the successor from any table and
// rejects near misses, including a forged digest collision. The
// component raised is an existing one, a zero one below Len (old = 0
// contributes nothing to the digest), or one at or beyond Len, which
// grows Len and may cross a chunk boundary.
func TestTickProbe(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	iters := 4000
	if testing.Short() {
		iters = 800
	}
	tab, other := NewTable(), NewTable()
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
			t.Fatalf("it %d: TickDigest(r, %d) = %x, Tick digest %x", it, i, got, want.Digest())
		}
		size := tab.Size()
		c := Tick(r, i)
		if tab.Size() != size {
			t.Fatalf("it %d: the table-free Tick interned into the table", it)
		}
		if !Equal(c, want) || c.Len() != want.Len() || c.Sum() != want.Sum() || c.p == want.p {
			t.Fatalf("it %d: Tick(r, %d) = %v, want an uninterned %v", it, i, c, want)
		}
		for _, got := range []Ref{c, want, other.Intern(want.VC())} {
			if !IsTick(got, r, i) {
				t.Fatalf("it %d: IsTick rejects the successor %v of %v at %d", it, got, r, i)
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
				t.Fatalf("it %d: IsTick accepts %v as %v raised at %d", it, bad, r, i)
			}
			if bad.Len() != want.Len() || bad.Sum() != want.Sum() {
				continue
			}
			// A digest collision: equal digest, length and sum,
			// different components.
			forged := *bad.p
			forged.digest = want.p.digest
			if IsTick(Ref{&forged}, r, i) {
				t.Fatalf("it %d: IsTick accepts a forged collision %v", it, bad)
			}
			collisions++
		}
	}
	if collisions < iters/4 {
		t.Fatalf("only %d forged collisions checked", collisions)
	}
	for k, n := range kinds {
		if n < iters/10 {
			t.Fatalf("only %d of %d cases raise a component of kind %d", n, iters, k)
		}
	}
}

package clock

import (
	"fmt"
	"math/rand"
	"testing"

	"gompax/internal/testsupport/vc"
)

// randVC builds a random clock with up to 20 components, biased toward
// small values and trailing zeros so normalization paths are hit.
func randVC(rng *rand.Rand) vc.VC {
	n := rng.Intn(20)
	if n == 0 {
		return nil
	}
	v := make(vc.VC, n)
	for i := range v {
		v[i] = uint64(rng.Intn(4)) // 0 is common on purpose
	}
	return v
}

func TestNewNormalizes(t *testing.T) {
	t.Parallel()
	a := New([]uint64{1, 2, 0, 0})
	b := New([]uint64{1, 2})
	if !Equal(a, b) || a.Digest() != b.Digest() || a.Key() != b.Key() {
		t.Fatalf("trailing zeros not normalized: %v vs %v", a, b)
	}
	if a.Len() != 2 {
		t.Fatalf("Len = %d, want 2", a.Len())
	}
	z := New([]uint64{0, 0, 0})
	if !z.IsZero() || z != (Ref{}) {
		t.Fatalf("all-zeros clock should build the zero Ref")
	}
	if got := New(nil); !got.IsZero() {
		t.Fatalf("nil builds %v, want zero Ref", got)
	}
}

func TestZeroRef(t *testing.T) {
	t.Parallel()
	var z Ref
	if z.Len() != 0 || z.Get(0) != 0 || z.Sum() != 0 || z.Digest() != 0 {
		t.Fatalf("zero Ref not an all-zeros clock: %v", z)
	}
	if z.Key() != "" || z.String() != "()" {
		t.Fatalf("zero Ref renders Key=%q String=%q", z.Key(), z.String())
	}
	if !Equal(z, Ref{}) || !Leq(z, z) || Less(z, z) || Concurrent(z, z) {
		t.Fatal("zero Ref comparison identities broken")
	}
}

// TestDifferentialOps cross-checks every clock operation against the
// vc reference implementation on random vectors.
func TestDifferentialOps(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 5000; iter++ {
		va, vb := randVC(rng), randVC(rng)
		a, b := New(va), New(vb)

		if got, want := a.Key(), va.Key(); got != want {
			t.Fatalf("Key: got %q want %q", got, want)
		}
		if got, want := a.Sum(), va.Sum(); got != want {
			t.Fatalf("Sum: got %d want %d", got, want)
		}
		for i := -1; i < 22; i++ {
			if got, want := a.Get(i), va.Get(i); got != want {
				t.Fatalf("Get(%d): got %d want %d for %v", i, got, want, va)
			}
		}
		if got, want := Leq(a, b), vc.LEQ(va, vb); got != want {
			t.Fatalf("Leq(%v,%v): got %v want %v", va, vb, got, want)
		}
		if got, want := Less(a, b), vc.Less(va, vb); got != want {
			t.Fatalf("Less(%v,%v): got %v want %v", va, vb, got, want)
		}
		if got, want := Equal(a, b), vc.Equal(va, vb); got != want {
			t.Fatalf("Equal(%v,%v): got %v want %v", va, vb, got, want)
		}
		if got, want := Concurrent(a, b), vc.Concurrent(va, vb); got != want {
			t.Fatalf("Concurrent(%v,%v): got %v want %v", va, vb, got, want)
		}
		for i := 0; i < 6; i++ {
			if got, want := Precedes(a, i, b), vc.Precedes(va, i, vb); got != want {
				t.Fatalf("Precedes(%v,%d,%v): got %v want %v", va, i, vb, got, want)
			}
		}

		// Join against the reference: the same value, digest included.
		j := Join(a, b)
		vj := vc.Join(va, vb)
		if jj := New(vj); !Equal(jj, j) || jj.Digest() != j.Digest() || j.Key() != vj.Key() {
			t.Fatalf("Join(%v,%v) = %v, want %v", va, vb, j, vj)
		}

		// Tick against Inc on a clone.
		i := rng.Intn(21)
		tk := Tick(a, i)
		vt := va.Clone()
		vt.Inc(i)
		if tt := New(vt); !Equal(tt, tk) || tt.Digest() != tk.Digest() || tk.Key() != vt.Key() {
			t.Fatalf("Tick(%v,%d) = %v, want %v", va, i, tk, vt)
		}

		// Digest is a pure function of the value: rebuilding the
		// materialized VC reproduces it.
		if a.Digest() != New(vc.From(a)).Digest() {
			t.Fatalf("digest of %v not reproducible", va)
		}
	}
}

func TestJoinSharesDominatingSide(t *testing.T) {
	t.Parallel()
	big := Of(3, 4, 5)
	small := Of(1, 2, 5)
	if got := Join(big, small); got != big {
		t.Fatalf("Join with dominated right side should return left Ref")
	}
	if got := Join(small, big); got != big {
		t.Fatalf("Join with dominated left side should return right Ref")
	}
	if got := Join(big, Ref{}); got != big {
		t.Fatalf("Join with zero right side should return left Ref")
	}
	if got := Join(Ref{}, big); got != big {
		t.Fatalf("Join with zero left side should return right Ref")
	}
	if got := Join(big, Of(3, 4, 5)); got != big {
		t.Fatalf("Join with an equal value should return the left Ref")
	}
	if got := Join(big, big); got != big {
		t.Fatalf("Join with itself should return the same Ref")
	}
}

func TestTickSharesChunks(t *testing.T) {
	t.Parallel()
	comps := make([]uint64, 20)
	for i := range comps {
		comps[i] = uint64(i + 1)
	}
	a := New(comps)
	b := Tick(a, 0)
	if len(a.p.chunks) != 3 || len(b.p.chunks) != 3 {
		t.Fatalf("expected 3 chunks, got %d and %d", len(a.p.chunks), len(b.p.chunks))
	}
	if b.p.chunks[0] == a.p.chunks[0] {
		t.Fatal("modified chunk must be fresh")
	}
	if b.p.chunks[1] != a.p.chunks[1] || b.p.chunks[2] != a.p.chunks[2] {
		t.Fatal("unmodified chunks must be shared by pointer")
	}
}

func TestCompareTotalOrder(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 2000; iter++ {
		va, vb := randVC(rng), randVC(rng)
		a, b := New(va), New(vb)
		ab, ba := Compare(a, b), Compare(b, a)
		if ab != -ba {
			t.Fatalf("Compare not antisymmetric on %v, %v: %d vs %d", va, vb, ab, ba)
		}
		if (ab == 0) != Equal(a, b) {
			t.Fatalf("Compare==0 disagrees with Equal on %v, %v", va, vb)
		}
		// Component-lexicographic: the first differing index decides.
		if ab != 0 {
			n := max(va.Len(), vb.Len())
			for i := 0; i < n; i++ {
				x, y := va.Get(i), vb.Get(i)
				if x == y {
					continue
				}
				want := 1
				if x < y {
					want = -1
				}
				if ab != want {
					t.Fatalf("Compare(%v,%v) = %d, want %d (first diff at %d)", va, vb, ab, want, i)
				}
				break
			}
		}
	}
}

func TestDiff(t *testing.T) {
	t.Parallel()
	prev := Of(1, 2, 0, 4)
	cur := Of(1, 3, 0, 4, 0, 2)
	var got []string
	ok := Diff(prev, cur, func(i int, d uint64) { got = append(got, fmt.Sprintf("%d+%d", i, d)) })
	if !ok {
		t.Fatal("Diff on monotone pair reported failure")
	}
	if want := []string{"1+1", "5+2"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Diff deltas = %v, want %v", got, want)
	}
	if Diff(cur, prev, func(int, uint64) {}) {
		t.Fatal("Diff on non-monotone pair must report failure")
	}
	if !Diff(cur, cur, func(int, uint64) { t.Fatal("no deltas expected") }) {
		t.Fatal("Diff of identical Refs must succeed")
	}
}

func TestDiffReconstructs(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 2000; iter++ {
		vp := randVC(rng)
		vcur := vp.Clone()
		for j := 0; j < rng.Intn(4); j++ {
			vcur.Inc(rng.Intn(20))
		}
		prev, cur := New(vp), New(vcur)
		rebuilt := vc.From(prev)
		ok := Diff(prev, cur, func(i int, d uint64) {
			rebuilt.Set(i, rebuilt.Get(i)+d)
		})
		if !ok {
			t.Fatalf("Diff failed on monotone pair %v -> %v", vp, vcur)
		}
		if !Equal(New(rebuilt), cur) {
			t.Fatalf("Diff deltas do not reconstruct %v from %v", vcur, vp)
		}
	}
}

// TestTableSizeAndHits: a Table counts each value its Tick and Join
// build, and has no hits: building a value it has built before counts
// again. A Join that returns one of its arguments builds nothing.
func TestTableSizeAndHits(t *testing.T) {
	t.Parallel()
	tb := NewTable()
	a := tb.Tick(Ref{}, 0)
	b := tb.Tick(Ref{}, 1)
	j := tb.Join(a, b)
	if !Equal(j, Of(1, 1)) {
		t.Fatalf("Join = %v, want (1,1)", j)
	}
	if got := tb.Join(j, a); got != j {
		t.Fatalf("Join with a dominated side = %v, want the dominating Ref", got)
	}
	tb.Join(a, Ref{})
	if again := tb.Tick(Ref{}, 0); again == a || !Equal(again, a) {
		t.Fatalf("a second Tick of the same value = %v (same node %v), want a new node equal to %v", again, again == a, a)
	}
	if got := tb.Size(); got != 4 {
		t.Fatalf("Size = %d, want 4", got)
	}
}

var tickSink Ref

// TestTickAllocations: a tick of a clock that fits one chunk is one
// allocation; a wider clock's takes the node, its spine and the
// raised chunk. A Join that neither side dominates takes the node,
// its spine and each chunk that mixes both sides.
func TestTickAllocations(t *testing.T) {
	narrow := New([]uint64{1, 2, 3})
	wide := New([]uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	other := New([]uint64{3, 1})
	for _, tc := range []struct {
		name   string
		op     func() Ref
		allocs float64
	}{
		{"Tick(narrow, 1)", func() Ref { return Tick(narrow, 1) }, 1},
		{"Tick(narrow, 7)", func() Ref { return Tick(narrow, 7) }, 1},
		{"Tick(wide, 3)", func() Ref { return Tick(wide, 3) }, 3},
		{"Tick(wide, 11)", func() Ref { return Tick(wide, 11) }, 3},
		{"Join(narrow, other)", func() Ref { return Join(narrow, other) }, 3},
	} {
		if got := testing.AllocsPerRun(100, func() { tickSink = tc.op() }); got != tc.allocs {
			t.Errorf("%s costs %v allocations, want %v", tc.name, got, tc.allocs)
		}
	}
}

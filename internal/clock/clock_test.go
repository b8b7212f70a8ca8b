package clock

import (
	"fmt"
	"math/rand"
	"testing"

	"gompax/internal/vc"
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

func TestInternNormalizes(t *testing.T) {
	t.Parallel()
	tb := NewTable()
	a := tb.Intern([]uint64{1, 2, 0, 0})
	b := tb.Intern([]uint64{1, 2})
	if a != b {
		t.Fatalf("trailing zeros not normalized: %v vs %v", a, b)
	}
	if a.Len() != 2 {
		t.Fatalf("Len = %d, want 2", a.Len())
	}
	z := tb.Intern([]uint64{0, 0, 0})
	if !z.IsZero() || z != (Ref{}) {
		t.Fatalf("all-zeros clock should intern to the zero Ref")
	}
	if got := tb.Intern(nil); !got.IsZero() {
		t.Fatalf("nil interns to %v, want zero Ref", got)
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
	if z.VC() != nil {
		t.Fatalf("zero Ref VC = %v, want nil", z.VC())
	}
}

// TestDifferentialOps cross-checks every clock operation against the
// vc reference implementation on random vectors.
func TestDifferentialOps(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	tb := NewTable()
	for iter := 0; iter < 5000; iter++ {
		va, vb := randVC(rng), randVC(rng)
		a, b := tb.Intern(va), tb.Intern(vb)

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

		// Join against the reference, plus canonicality: equal values
		// must intern to the identical Ref.
		j := tb.Join(a, b)
		vj := vc.Join(va, vb)
		if jj := tb.Intern(vj); jj != j {
			t.Fatalf("Join(%v,%v) = %v not canonical vs %v", va, vb, j, vj)
		}

		// Tick against Inc on a clone.
		i := rng.Intn(21)
		tk := tb.Tick(a, i)
		vt := va.Clone()
		vt.Inc(i)
		if tt := tb.Intern(vt); tt != tk {
			t.Fatalf("Tick(%v,%d) = %v not canonical vs %v", va, i, tk, vt)
		}

		// Digest is a pure function of the value: re-interning the
		// materialized VC in a fresh table reproduces it.
		if a.Digest() != NewTable().Intern(a.VC()).Digest() {
			t.Fatalf("digest of %v not reproducible", va)
		}
	}
}

func TestJoinSharesDominatingSide(t *testing.T) {
	t.Parallel()
	tb := NewTable()
	big := tb.Intern([]uint64{3, 4, 5})
	small := tb.Intern([]uint64{1, 2, 5})
	if got := tb.Join(big, small); got != big {
		t.Fatalf("Join with dominated right side should return left Ref")
	}
	if got := tb.Join(small, big); got != big {
		t.Fatalf("Join with dominated left side should return right Ref")
	}
	if got := tb.Join(big, Ref{}); got != big {
		t.Fatalf("Join with zero right side should return left Ref")
	}
	if got := tb.Join(Ref{}, big); got != big {
		t.Fatalf("Join with zero left side should return right Ref")
	}
	if got := tb.Join(big, big); got != big {
		t.Fatalf("Join with itself should return the same Ref")
	}
}

func TestTickSharesChunks(t *testing.T) {
	t.Parallel()
	tb := NewTable()
	comps := make([]uint64, 20)
	for i := range comps {
		comps[i] = uint64(i + 1)
	}
	a := tb.Intern(comps)
	b := tb.Tick(a, 0)
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
	tb := NewTable()
	for iter := 0; iter < 2000; iter++ {
		va, vb := randVC(rng), randVC(rng)
		a, b := tb.Intern(va), tb.Intern(vb)
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
	tb := NewTable()
	prev := tb.Intern([]uint64{1, 2, 0, 4})
	cur := tb.Intern([]uint64{1, 3, 0, 4, 0, 2})
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
	tb := NewTable()
	for iter := 0; iter < 2000; iter++ {
		vp := randVC(rng)
		vcur := vp.Clone()
		for j := 0; j < rng.Intn(4); j++ {
			vcur.Inc(rng.Intn(20))
		}
		prev, cur := tb.Intern(vp), tb.Intern(vcur)
		rebuilt := prev.VC()
		ok := Diff(prev, cur, func(i int, d uint64) {
			rebuilt.Set(i, rebuilt.Get(i)+d)
		})
		if !ok {
			t.Fatalf("Diff failed on monotone pair %v -> %v", vp, vcur)
		}
		if tb.Intern(rebuilt) != cur {
			t.Fatalf("Diff deltas do not reconstruct %v from %v", vcur, vp)
		}
	}
}

func TestConcurrentInterning(t *testing.T) {
	t.Parallel()
	tb := NewTable()
	const workers = 8
	refs := make([]Ref, workers)
	done := make(chan int, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			rng := rand.New(rand.NewSource(int64(w)))
			r := Ref{}
			for i := 0; i < 500; i++ {
				r = tb.Tick(r, rng.Intn(4))
				r = tb.Join(r, tb.Intern([]uint64{uint64(i % 7), 1}))
			}
			refs[w] = tb.Intern([]uint64{9, 9, 9})
			done <- w
		}(w)
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	for w := 1; w < workers; w++ {
		if refs[w] != refs[0] {
			t.Fatal("same value interned to different nodes under concurrency")
		}
	}
}

func TestTableSizeAndHits(t *testing.T) {
	t.Parallel()
	tb := NewTable()
	tb.Intern([]uint64{1})
	tb.Intern([]uint64{1, 2})
	tb.Intern([]uint64{1, 2, 0}) // hit: same value as previous
	tb.Intern([]uint64{1})       // hit
	if got := tb.Size(); got != 2 {
		t.Fatalf("Size = %d, want 2", got)
	}
}

// TestNewMatchesIntern: New builds the value Intern builds, normalized
// alike, with the same digest and sum, but interned nowhere.
func TestNewMatchesIntern(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		v := randVC(rng)
		got, want := New(v), Global().Intern(v)
		if !Equal(got, want) || got.Key() != want.Key() || got.Digest() != want.Digest() || got.Sum() != want.Sum() {
			t.Fatalf("New(%v) = %s (digest %x, sum %d), Intern = %s (digest %x, sum %d)",
				v, got, got.Digest(), got.Sum(), want, want.Digest(), want.Sum())
		}
		if !want.IsZero() && got == want {
			t.Fatalf("New(%v) returned the table's node", v)
		}
	}
}

var tickSink Ref

// TestTickAllocations: a tick of a clock that fits one chunk is one
// allocation; a wider clock's takes the node, its spine and the
// raised chunk.
func TestTickAllocations(t *testing.T) {
	narrow := New([]uint64{1, 2, 3})
	wide := New([]uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	for _, tc := range []struct {
		r      Ref
		i      int
		allocs float64
	}{{narrow, 1, 1}, {narrow, 7, 1}, {wide, 3, 3}, {wide, 11, 3}} {
		if got := testing.AllocsPerRun(100, func() { tickSink = Tick(tc.r, tc.i) }); got != tc.allocs {
			t.Errorf("Tick(%s, %d) costs %v allocations, want %v", tc.r, tc.i, got, tc.allocs)
		}
	}
}

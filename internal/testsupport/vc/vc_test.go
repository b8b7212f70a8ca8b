package vc

import (
	"testing"
	"testing/quick"
)

func TestZeroValue(t *testing.T) {
	t.Parallel()
	var v VC
	if v.Get(0) != 0 || v.Get(7) != 0 {
		t.Fatalf("zero clock has nonzero components")
	}
	if v.Len() != 0 {
		t.Fatalf("Len = %d, want 0", v.Len())
	}
	if !Equal(v, New(4)) {
		t.Fatalf("nil clock not Equal to explicit zeros")
	}
	if v.Sum() != 0 {
		t.Fatalf("Sum of zero clock = %d", v.Sum())
	}
}

// TestFrom checks the copy a test takes of any Len/Get clock: the same
// components, a fresh backing array, and nil for the zero clock.
func TestFrom(t *testing.T) {
	t.Parallel()
	v := VC{3, 0, 5}
	w := From(v)
	if !Equal(v, w) || w.Len() != 3 {
		t.Fatalf("From(%v) = %v", v, w)
	}
	w[0]++
	if v[0] != 3 {
		t.Fatalf("From aliases its source")
	}
	if From(VC(nil)) != nil || From(VC{}) != nil {
		t.Fatalf("From of the zero clock is not nil")
	}
}

func TestIncSetGet(t *testing.T) {
	t.Parallel()
	var v VC
	if got := v.Inc(2); got != 1 {
		t.Fatalf("Inc returned %d, want 1", got)
	}
	if v.Len() != 3 {
		t.Fatalf("Len = %d after Inc(2), want 3", v.Len())
	}
	v.Set(5, 42)
	if v.Get(5) != 42 || v.Get(2) != 1 || v.Get(4) != 0 {
		t.Fatalf("unexpected components: %v", v)
	}
}

func TestGetOutOfRange(t *testing.T) {
	t.Parallel()
	v := VC{1, 2}
	if v.Get(-1) != 0 {
		t.Fatalf("negative index should read 0")
	}
	if v.Get(99) != 0 {
		t.Fatalf("past-end index should read 0")
	}
}

func TestCloneIndependence(t *testing.T) {
	t.Parallel()
	v := VC{1, 2, 3}
	w := v.Clone()
	w.Inc(0)
	if v[0] != 1 {
		t.Fatalf("Clone aliases original")
	}
	if (VC)(nil).Clone() != nil {
		t.Fatalf("Clone of nil should be nil")
	}
}

func TestCloneInto(t *testing.T) {
	t.Parallel()
	v := VC{5, 6, 7}
	dst := make(VC, 1)
	dst = v.CloneInto(dst)
	if !Equal(dst, v) {
		t.Fatalf("CloneInto mismatch: %v vs %v", dst, v)
	}
	// Reuse a big buffer.
	big := make(VC, 10)
	out := v.CloneInto(big)
	if len(out) != 3 || !Equal(out, v) {
		t.Fatalf("CloneInto reuse mismatch: %v", out)
	}
}

func TestJoin(t *testing.T) {
	t.Parallel()
	a := VC{1, 5, 0}
	b := VC{3, 2}
	j := Join(a, b)
	want := VC{3, 5, 0}
	if !Equal(j, want) {
		t.Fatalf("Join = %v, want %v", j, want)
	}
	// JoinInto grows.
	c := VC{1}
	c.JoinInto(VC{0, 0, 9})
	if !Equal(c, VC{1, 0, 9}) {
		t.Fatalf("JoinInto = %v", c)
	}
}

func TestOrderRelations(t *testing.T) {
	t.Parallel()
	cases := []struct {
		a, b            VC
		leq, less, conc bool
	}{
		{VC{1, 2}, VC{1, 2}, true, false, false},
		{VC{1, 2}, VC{2, 2}, true, true, false},
		{VC{1, 2}, VC{2, 1}, false, false, true},
		{nil, VC{0, 0}, true, false, false},
		{nil, VC{1}, true, true, false},
		{VC{0, 1}, VC{1, 0}, false, false, true},
	}
	for _, c := range cases {
		if LEQ(c.a, c.b) != c.leq {
			t.Errorf("LEQ(%v,%v) = %v, want %v", c.a, c.b, !c.leq, c.leq)
		}
		if Less(c.a, c.b) != c.less {
			t.Errorf("Less(%v,%v) = %v, want %v", c.a, c.b, !c.less, c.less)
		}
		if Concurrent(c.a, c.b) != c.conc {
			t.Errorf("Concurrent(%v,%v) = %v, want %v", c.a, c.b, !c.conc, c.conc)
		}
	}
}

func TestEqualDifferentLengths(t *testing.T) {
	t.Parallel()
	if !Equal(VC{1, 0, 0}, VC{1}) {
		t.Fatalf("trailing zeros should not affect Equal")
	}
	if Equal(VC{1, 0, 2}, VC{1}) {
		t.Fatalf("distinct clocks reported Equal")
	}
}

func TestHashNormalizesTrailingZeros(t *testing.T) {
	t.Parallel()
	a := VC{3, 1, 0, 0}
	b := VC{3, 1}
	if a.Hash() != b.Hash() {
		t.Fatalf("Hash differs for Equal clocks")
	}
	if a.Key() != b.Key() {
		t.Fatalf("Key differs for Equal clocks: %q vs %q", a.Key(), b.Key())
	}
}

func TestStringAndKey(t *testing.T) {
	t.Parallel()
	v := VC{1, 2}
	if v.String() != "(1,2)" {
		t.Fatalf("String = %q", v.String())
	}
	if v.Key() != "1,2" {
		t.Fatalf("Key = %q", v.Key())
	}
	if (VC{}).String() != "()" {
		t.Fatalf("empty String = %q", (VC{}).String())
	}
}

func TestPrecedesTheorem3Shape(t *testing.T) {
	t.Parallel()
	// Thread 0 emits e with V=(1,0); thread 1 emits e' with V'=(1,1)
	// after reading what thread 0 wrote: e ⊲ e'.
	v := VC{1, 0}
	w := VC{1, 1}
	if !Precedes(v, 0, w) {
		t.Fatalf("expected e ⊲ e'")
	}
	if Precedes(w, 1, v) {
		t.Fatalf("e' should not precede e")
	}
	if !Less(v, w) {
		t.Fatalf("Theorem 3: V < V' should hold when e ⊲ e'")
	}
}

// Property: Join is the least upper bound — it dominates both operands
// and is dominated by any common upper bound.
func TestQuickJoinIsLUB(t *testing.T) {
	t.Parallel()
	f := func(a8, b8, c8 [5]uint8) bool {
		a, b, c := fromBytes(a8[:]), fromBytes(b8[:]), fromBytes(c8[:])
		j := Join(a, b)
		if !LEQ(a, j) || !LEQ(b, j) {
			return false
		}
		// Any upper bound of a and b dominates j.
		u := Join(Join(a, b), c)
		return LEQ(j, u)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: exactly one of a<b, b<a, a==b, a||b holds.
func TestQuickTrichotomyWithConcurrency(t *testing.T) {
	t.Parallel()
	f := func(a8, b8 [4]uint8) bool {
		a, b := fromBytes(a8[:]), fromBytes(b8[:])
		n := 0
		if Less(a, b) {
			n++
		}
		if Less(b, a) {
			n++
		}
		if Equal(a, b) {
			n++
		}
		if Concurrent(a, b) {
			n++
		}
		return n == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Hash agrees on Equal clocks regardless of trailing zeros.
func TestQuickHashRespectsEquality(t *testing.T) {
	t.Parallel()
	f := func(xs [6]uint8, pad uint8) bool {
		v := fromBytes(xs[:])
		w := v.Clone()
		for i := 0; i < int(pad%8); i++ {
			w = append(w, 0)
		}
		return v.Hash() == w.Hash() && v.Key() == w.Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func fromBytes(xs []uint8) VC {
	v := make(VC, len(xs))
	for i, x := range xs {
		v[i] = uint64(x)
	}
	return v
}

// TestJoinZeroSides pins the aliasing contract of Join around nil and
// all-zero operands: the zero side contributes nothing, nil results
// stay nil, and the result never aliases either input.
func TestJoinZeroSides(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		a, b VC
		want VC
	}{
		{"nil-nil", nil, nil, nil},
		{"nil-empty", nil, VC{}, nil},
		{"zeros-zeros", VC{0, 0}, VC{0, 0, 0}, nil},
		{"nil-right", VC{1, 2}, nil, VC{1, 2}},
		{"nil-left", nil, VC{3}, VC{3}},
		{"zeros-right", VC{1, 2}, VC{0, 0, 0}, VC{1, 2}},
		{"zeros-left", VC{0, 0}, VC{4, 0, 5}, VC{4, 0, 5}},
		{"both", VC{1, 5}, VC{4, 0, 5}, VC{4, 5, 5}},
	}
	for _, tc := range cases {
		got := Join(tc.a, tc.b)
		if !Equal(got, tc.want) {
			t.Errorf("%s: Join(%v,%v) = %v, want %v", tc.name, tc.a, tc.b, got, tc.want)
		}
		if len(tc.want) == 0 && got != nil {
			t.Errorf("%s: Join of zero clocks = %v, want nil", tc.name, got)
		}
		if got != nil {
			got[0]++ // must not write through to either input
			if len(tc.a) > 0 && tc.a[0] == got[0] && &got[0] == &tc.a[0] {
				t.Errorf("%s: result aliases a", tc.name)
			}
			if len(tc.b) > 0 && tc.b[0] == got[0] && &got[0] == &tc.b[0] {
				t.Errorf("%s: result aliases b", tc.name)
			}
		}
	}
}

// TestCloneNil pins that cloning a nil (or effectively empty) clock
// stays nil instead of materializing an empty slice.
func TestCloneNil(t *testing.T) {
	t.Parallel()
	if got := VC(nil).Clone(); got != nil {
		t.Fatalf("Clone(nil) = %v, want nil", got)
	}
	if got := (VC{}).Clone(); got != nil {
		t.Fatalf("Clone(empty) = %v, want nil", got)
	}
	if got := (VC{1}).Clone(); got == nil || got[0] != 1 {
		t.Fatalf("Clone({1}) = %v", got)
	}
}

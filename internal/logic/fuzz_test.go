package logic

import "testing"

// FuzzParseFormula checks the parser never panics and that accepted
// formulas round-trip through String (printing is a fixpoint).
func FuzzParseFormula(f *testing.F) {
	seeds := []string{
		"(x > 0) -> [y = 0, y > z)",
		"start(landing = 1) -> [approved = 1, radio = 0)",
		"[*] <*> (.) x = 1",
		"a = 1 S b = 2 U c = 3",
		"!((x + 1) * 2 > y) /\\ true",
		"x=1<->y=2<->z=3",
		"[] <> next done = 1",
		"((((", "x @", "", "5", "since = 1",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		formula, err := ParseFormula(src)
		if err != nil {
			return
		}
		printed := formula.String()
		again, err := ParseFormula(printed)
		if err != nil {
			t.Fatalf("printed form %q does not reparse: %v", printed, err)
		}
		if again.String() != printed {
			t.Fatalf("printing not a fixpoint: %q vs %q", again.String(), printed)
		}
		// Simplification must also yield a parseable, stable formula.
		simp := Simplify(formula)
		if _, err := ParseFormula(simp.String()); err != nil {
			t.Fatalf("simplified form %q does not parse: %v", simp.String(), err)
		}
	})
}

// FuzzSlotPred differentially checks atoms compiled to slot reads:
// over any value vector, every predicate of a formula, compiled with
// CompilePred, returns what Pred.Holds returns over the State binding
// the same variables to the same values, with the same error text.
// bound picks which of the formula's variables the state binds, so
// unbound variables are covered, as are zero divisors.
func FuzzSlotPred(f *testing.F) {
	seeds := []struct {
		src     string
		x, y, z int64
		bound   uint8
	}{
		{"x = 1", 1, 0, 0, 1},
		{"x / (y - 1) > z % 2", 3, 1, 5, 7},
		{"x % y <= -z", 4, 0, 2, 7},
		{"10 / x > 0 /\\ y = 0", 0, 0, 0, 3},
		{"nope = 1 \\/ x < y", 1, 2, 3, 3},
		{"(x + 1) * 2 > y - -z", -9223372036854775808, -1, 7, 7},
		{"[*] (x / y < z) -> [x = 1, y % z = 0)", 1, 2, 0, 5},
		{"start(a * b != c)", 2, 3, 6, 6},
	}
	for _, s := range seeds {
		f.Add(s.src, s.x, s.y, s.z, s.bound)
	}
	f.Fuzz(func(t *testing.T, src string, x, y, z int64, bound uint8) {
		formula, err := ParseFormula(src)
		if err != nil {
			return
		}
		values := []int64{x, y, z}
		m := map[string]int64{}
		for i, name := range Vars(formula) {
			if bound&(1<<(i%8)) != 0 {
				m[name] = values[i%len(values)]
			}
		}
		st := StateFromMap(m)
		vals := st.Values()
		Walk(formula, func(g Formula) {
			p, ok := g.(Pred)
			if !ok {
				return
			}
			sp := CompilePred(p, st.Vars())
			want, wantErr := p.Holds(st)
			got, gotErr := sp.Holds(vals)
			if got != want || (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
				t.Fatalf("%s over %s: compiled (%v, %v), Holds (%v, %v)", p, st, got, gotErr, want, wantErr)
			}
		})
	})
}

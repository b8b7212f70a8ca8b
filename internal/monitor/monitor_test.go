package monitor

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"gompax/internal/logic"
)

func states(t *testing.T, vars []string, rows ...[]int) []logic.State {
	t.Helper()
	out := make([]logic.State, len(rows))
	for i, row := range rows {
		if len(row) != len(vars) {
			t.Fatalf("row %d has %d values for %d vars", i, len(row), len(vars))
		}
		m := map[string]int64{}
		for j, v := range vars {
			m[v] = int64(row[j])
		}
		out[i] = logic.StateFromMap(m)
	}
	return out
}

// TestDifferentialAgainstReference is the central test: for many random
// formulas and random traces, the synthesized monitor must agree with
// the declarative reference semantics at every position.
func TestDifferentialAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	vars := []string{"a", "b", "c"}
	for iter := 0; iter < 400; iter++ {
		f := logic.GenFormula(rng, vars, 4)
		prog, err := Compile(f)
		if err != nil {
			t.Fatalf("compile %q: %v", f, err)
		}
		trace := logic.GenStates(rng, vars, 1+rng.Intn(12))
		want, err := logic.EvalTrace(f, trace)
		if err != nil {
			t.Fatalf("reference eval %q: %v", f, err)
		}
		m := prog.NewMonitor()
		// bm takes the lattice level step's path: the state's atoms
		// packed once, then a step on the word alone.
		bm := prog.NewMonitor()
		for i, s := range trace {
			v, err := m.Step(s)
			if err != nil {
				t.Fatalf("step %d of %q: %v", i, f, err)
			}
			got := v == Satisfied
			if got != want[i] {
				t.Fatalf("formula %q at step %d: monitor %v, reference %v\ntrace: %v",
					f, i, got, want[i], trace)
			}
			bits, err := prog.AtomBits(s)
			if err != nil {
				t.Fatalf("atoms at step %d of %q: %v", i, f, err)
			}
			if bv := bm.StepBits(bits); bv != v || bm.Key() != m.Key() {
				t.Fatalf("formula %q at step %d: StepBits gave %v key %#x, Step %v key %#x",
					f, i, bv, bm.Key(), v, m.Key())
			}
		}
	}
}

func TestPaperPropertyMonitor(t *testing.T) {
	prog := MustCompile(logic.MustParseFormula("(x > 0) -> [y = 0, y > z)"))
	vars := []string{"x", "y", "z"}

	// Observed (leftmost) run of Fig. 6: never violated.
	obs := states(t, vars, []int{-1, 0, 0}, []int{0, 0, 0}, []int{0, 0, 1}, []int{1, 0, 1}, []int{1, 1, 1})
	if idx, err := CheckTrace(prog, obs); err != nil || idx != -1 {
		t.Fatalf("observed run: idx=%d err=%v, want -1,nil", idx, err)
	}

	// Rightmost run: y=1 while z=0 happens before x>0; violated when
	// x becomes 1.
	bad := states(t, vars, []int{-1, 0, 0}, []int{0, 0, 0}, []int{0, 1, 0}, []int{0, 1, 1}, []int{1, 1, 1})
	idx, err := CheckTrace(prog, bad)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 4 {
		t.Fatalf("violation at %d, want 4", idx)
	}
}

func TestLandingPropertyMonitor(t *testing.T) {
	prog := MustCompile(logic.MustParseFormula("start(landing = 1) -> [approved = 1, radio = 0)"))
	vars := []string{"landing", "approved", "radio"}

	// Fig. 5 leftmost path (observed execution): <0,0,1> → <0,1,1> →
	// <1,1,1> → <1,1,0>: no violation (radio drops after landing).
	ok := states(t, vars, []int{0, 0, 1}, []int{0, 1, 1}, []int{1, 1, 1}, []int{1, 1, 0})
	if idx, _ := CheckTrace(prog, ok); idx != -1 {
		t.Fatalf("observed run flagged at %d", idx)
	}

	// Radio drops between approval and landing: violation at landing.
	bad := states(t, vars, []int{0, 0, 1}, []int{0, 1, 1}, []int{0, 1, 0}, []int{1, 1, 0})
	if idx, _ := CheckTrace(prog, bad); idx != 3 {
		t.Fatalf("violation at %d, want 3", idx)
	}

	// Radio drops before approval is granted (approved stays 1 because
	// the buggy controller read radio earlier): violation at landing.
	bad2 := states(t, vars, []int{0, 0, 1}, []int{0, 0, 0}, []int{0, 1, 0}, []int{1, 1, 0})
	if idx, _ := CheckTrace(prog, bad2); idx != 3 {
		t.Fatalf("violation at %d, want 3", idx)
	}
}

func TestCloneIndependence(t *testing.T) {
	prog := MustCompile(logic.MustParseFormula("[*] x = 0"))
	m := prog.NewMonitor()
	s0 := logic.StateFromMap(map[string]int64{"x": 0})
	s1 := logic.StateFromMap(map[string]int64{"x": 1})
	if v, _ := m.Step(s0); v != Satisfied {
		t.Fatalf("step 1")
	}
	cl := m.Clone()
	if cl.Key() != m.Key() {
		t.Fatalf("clone key differs")
	}
	// Diverge: original sees x=1 (violation), clone stays at x=0.
	if v, _ := m.Step(s1); v != Violated {
		t.Fatalf("original should be violated")
	}
	if v, _ := cl.Step(s0); v != Satisfied {
		t.Fatalf("clone should be satisfied")
	}
	if cl.Key() == m.Key() {
		t.Fatalf("keys should diverge")
	}
}

func TestKeyDeterminesFuture(t *testing.T) {
	// Two monitors reaching the same key behave identically afterwards.
	rng := rand.New(rand.NewSource(77))
	vars := []string{"a", "b"}
	for iter := 0; iter < 100; iter++ {
		f := logic.GenFormula(rng, vars, 3)
		prog, err := Compile(f)
		if err != nil {
			t.Fatal(err)
		}
		t1 := logic.GenStates(rng, vars, 3+rng.Intn(5))
		t2 := logic.GenStates(rng, vars, 3+rng.Intn(5))
		m1, m2 := prog.NewMonitor(), prog.NewMonitor()
		for _, s := range t1 {
			m1.Step(s)
		}
		for _, s := range t2 {
			m2.Step(s)
		}
		if m1.Key() != m2.Key() {
			continue
		}
		// Same key: continue both with the same suffix; verdicts must agree.
		suffix := logic.GenStates(rng, vars, 5)
		for i, s := range suffix {
			v1, _ := m1.Step(s)
			v2, _ := m2.Step(s)
			if v1 != v2 {
				t.Fatalf("formula %q: same key diverged at suffix step %d", f, i)
			}
		}
	}
}

func TestRestore(t *testing.T) {
	prog := MustCompile(logic.MustParseFormula("<*> x = 1"))
	m := prog.NewMonitor()
	s0 := logic.StateFromMap(map[string]int64{"x": 0})
	s1 := logic.StateFromMap(map[string]int64{"x": 1})
	m.Step(s1)
	key := m.Key()
	m2 := prog.NewMonitor()
	m2.Restore(key)
	if v, _ := m2.Step(s0); v != Satisfied {
		t.Fatalf("restored monitor lost <*> memory")
	}
}

func TestStartedFlag(t *testing.T) {
	prog := MustCompile(logic.MustParseFormula("(.) x = 1"))
	m := prog.NewMonitor()
	if m.Started() {
		t.Fatalf("fresh monitor claims started")
	}
	s1 := logic.StateFromMap(map[string]int64{"x": 1})
	s0 := logic.StateFromMap(map[string]int64{"x": 0})
	// Initial state: (.) phi = phi(now).
	if v, _ := m.Step(s1); v != Satisfied {
		t.Fatalf("prev at initial state should equal current value")
	}
	if !m.Started() {
		t.Fatalf("monitor should be started")
	}
	// Next state: prev value of x=1 was true.
	if v, _ := m.Step(s0); v != Satisfied {
		t.Fatalf("prev should see x=1 from previous state")
	}
	if v, _ := m.Step(s0); v != Violated {
		t.Fatalf("prev should now see x=0")
	}
}

func TestCompileTooManyTemporalOps(t *testing.T) {
	f := logic.Formula(logic.Pred{Op: logic.EQ, L: logic.VarRef{Name: "x"}, R: logic.IntLit{Value: 0}})
	for i := 0; i < 64; i++ {
		f = logic.EventuallyPast{X: f}
	}
	if _, err := Compile(f); err == nil || !strings.Contains(err.Error(), "temporal") {
		t.Fatalf("expected temporal-limit error, got %v", err)
	}
}

// TestCompileTooManyAtoms: one valuation bit per atom, so a formula
// with more than MaxAtoms distinct atoms is rejected at compile time,
// and one with exactly MaxAtoms steps on its last atom, the word's top
// bit.
func TestCompileTooManyAtoms(t *testing.T) {
	// atoms(n) is n distinct atoms: n-1 that hold for every x >= 0,
	// then x < 5, which alone decides the verdict.
	atoms := func(n int) string {
		var parts []string
		for i := 1; i < n; i++ {
			parts = append(parts, fmt.Sprintf("x > -%d", i))
		}
		return strings.Join(append(parts, "x < 5"), " /\\ ")
	}
	_, err := Compile(logic.MustParseFormula(atoms(MaxAtoms + 1)))
	if err == nil || !strings.Contains(err.Error(), fmt.Sprint(MaxAtoms)) {
		t.Fatalf("%d atoms: want an error naming the limit %d, got %v", MaxAtoms+1, MaxAtoms, err)
	}
	prog, err := Compile(logic.MustParseFormula(atoms(MaxAtoms)))
	if err != nil {
		t.Fatalf("%d atoms: %v", MaxAtoms, err)
	}
	if got := len(prog.Atoms()); got != MaxAtoms {
		t.Fatalf("compiled %d atoms, want %d", got, MaxAtoms)
	}
	for _, tc := range []struct {
		x    int64
		bits uint64
		want Verdict
	}{
		{4, ^uint64(0), Satisfied},
		{5, ^uint64(0) >> 1, Violated},
	} {
		s := logic.StateFromMap(map[string]int64{"x": tc.x})
		bits, err := prog.AtomBits(s)
		if err != nil || bits != tc.bits {
			t.Fatalf("x = %d: AtomBits = %#x, %v; want %#x", tc.x, bits, err, tc.bits)
		}
		if v, err := prog.NewMonitor().Step(s); err != nil || v != tc.want {
			t.Fatalf("x = %d: Step = %v, %v; want %v", tc.x, v, err, tc.want)
		}
		if v := prog.NewMonitor().StepBits(bits); v != tc.want {
			t.Fatalf("x = %d: StepBits = %v, want %v", tc.x, v, tc.want)
		}
	}
}

func TestStepErrorOnUnboundVariable(t *testing.T) {
	prog := MustCompile(logic.MustParseFormula("q = 1"))
	m := prog.NewMonitor()
	s := logic.StateFromMap(map[string]int64{"x": 0})
	if _, err := m.Step(s); err == nil {
		t.Fatalf("expected unbound-variable error")
	}
	if _, err := prog.AtomBits(s); err == nil {
		t.Fatalf("expected unbound-variable error from AtomBits")
	}
}

func TestCheckTraceError(t *testing.T) {
	prog := MustCompile(logic.MustParseFormula("q = 1"))
	if _, err := CheckTrace(prog, []logic.State{logic.StateFromMap(nil)}); err == nil {
		t.Fatalf("expected error")
	}
}

func TestProgramAccessors(t *testing.T) {
	f := logic.MustParseFormula("(x > 0) -> [y = 0, y > z)")
	prog := MustCompile(f)
	if prog.Formula().String() != f.String() {
		t.Fatalf("Formula() mismatch")
	}
	if got := prog.Vars(); len(got) != 3 {
		t.Fatalf("Vars = %v", got)
	}
	if prog.TemporalBits() != 1 {
		t.Fatalf("TemporalBits = %d, want 1 (one interval)", prog.TemporalBits())
	}
}

func TestVerdictString(t *testing.T) {
	if Satisfied.String() != "satisfied" || Violated.String() != "violated" {
		t.Fatalf("verdict strings wrong")
	}
}

// Property (testing/quick): monitors are deterministic functions of
// their key — two monitors of the same program driven through the same
// states always have equal keys and verdicts.
func TestQuickMonitorDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vars := []string{"a", "b"}
		formula := logic.GenFormula(rng, vars, 3)
		prog, err := Compile(formula)
		if err != nil {
			return false
		}
		states := logic.GenStates(rng, vars, 1+rng.Intn(8))
		m1, m2 := prog.NewMonitor(), prog.NewMonitor()
		for _, s := range states {
			v1, e1 := m1.Step(s)
			v2, e2 := m2.Step(s)
			if (e1 == nil) != (e2 == nil) || v1 != v2 || m1.Key() != m2.Key() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

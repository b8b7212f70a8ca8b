package monitor

import (
	"math/rand"
	"strings"
	"testing"

	"gompax/internal/logic"
)

func TestBuildFSMPaperProperty(t *testing.T) {
	prog := MustCompile(logic.MustParseFormula("(x > 0) -> [y = 0, y > z)"))
	f, err := BuildFSM(prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Atoms) != 3 {
		t.Fatalf("atoms = %v", f.Atoms)
	}
	// One interval bit + started flag: at most 4 reachable key values,
	// plus the machine must have at least 2 (pre-initial and started).
	if f.NumStates() < 2 || f.NumStates() > 4 {
		t.Fatalf("states = %d", f.NumStates())
	}
	dot := f.DOT()
	for _, want := range []string{"digraph monitor", "violation", "legend"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
}

// TestFSMEquivalence: on random formulas and random atom-valuation
// sequences, the explicit FSM and the bit-state monitor agree on every
// verdict.
func TestFSMEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	vars := []string{"a", "b"}
	checked := 0
	for iter := 0; iter < 200; iter++ {
		formula := logic.GenFormula(rng, vars, 3)
		prog, err := Compile(formula)
		if err != nil {
			t.Fatal(err)
		}
		if len(prog.Atoms()) > 6 {
			continue
		}
		fsm, err := BuildFSM(prog, 0)
		if err != nil {
			t.Fatal(err)
		}
		m := prog.NewMonitor()
		state := 0
		for step := 0; step < 24; step++ {
			sym := rng.Intn(1 << len(prog.Atoms()))
			direct := m.StepBits(uint64(sym))
			viaFSM := fsm.Verdicts[state][sym]
			if direct != viaFSM {
				t.Fatalf("iter %d step %d: formula %q: monitor %v, FSM %v", iter, step, formula, direct, viaFSM)
			}
			state = fsm.Trans[state][sym]
			if fsm.Keys[state] != m.Key() {
				t.Fatalf("iter %d: FSM state key desynchronized", iter)
			}
		}
		checked++
	}
	if checked < 100 {
		t.Fatalf("only %d formulas checked", checked)
	}
}

func TestFSMRun(t *testing.T) {
	prog := MustCompile(logic.MustParseFormula("[*] x = 0"))
	fsm, err := BuildFSM(prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	// One atom: symbol 1 = (x = 0) true, symbol 0 = false.
	if idx := fsm.Run([]int{1, 1, 1}); idx != -1 {
		t.Fatalf("holds-run flagged at %d", idx)
	}
	if idx := fsm.Run([]int{1, 0, 1}); idx != 1 {
		t.Fatalf("violation at %d, want 1", idx)
	}
}

func TestBuildFSMTooManyAtoms(t *testing.T) {
	var parts []string
	for i := 0; i < MaxFSMAtoms+1; i++ {
		parts = append(parts, "x"+string(rune('a'+i))+" = "+string(rune('0'+i%10)))
	}
	prog := MustCompile(logic.MustParseFormula(strings.Join(parts, " /\\ ")))
	if _, err := BuildFSM(prog, 0); err == nil {
		t.Fatalf("oversized alphabet accepted")
	}
}

func TestBuildFSMStateBound(t *testing.T) {
	prog := MustCompile(logic.MustParseFormula("(a = 1) S (b = 1)"))
	if _, err := BuildFSM(prog, 1); err == nil {
		t.Fatalf("state bound ignored")
	}
}

func TestAtomDeduplication(t *testing.T) {
	prog := MustCompile(logic.MustParseFormula("(x = 1) /\\ ((x = 1) \\/ (y = 2))"))
	if got := len(prog.Atoms()); got != 2 {
		t.Fatalf("atoms = %d, want 2 (x=1 deduplicated)", got)
	}
}

func TestExplain(t *testing.T) {
	prog := MustCompile(logic.MustParseFormula("start(landing = 1) -> [approved = 1, radio = 0)"))
	mk := func(l, a, r int64) logic.State {
		return logic.StateFromMap(map[string]int64{"landing": l, "approved": a, "radio": r})
	}
	// The violating inner run of Fig. 5.
	states := []logic.State{mk(0, 0, 1), mk(0, 1, 1), mk(0, 1, 0), mk(1, 1, 0)}
	ex, err := Explain(prog, states)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Steps) != 4 || len(ex.Verdicts) != 4 {
		t.Fatalf("steps/verdicts = %d/%d", len(ex.Steps), len(ex.Verdicts))
	}
	if ex.Verdicts[3] != Violated {
		t.Fatalf("final verdict = %v", ex.Verdicts[3])
	}
	// The label count matches the per-step value count, and the last
	// label is the whole formula.
	if len(ex.Labels) != len(ex.Steps[0]) {
		t.Fatalf("labels %d vs values %d", len(ex.Labels), len(ex.Steps[0]))
	}
	top := ex.Labels[len(ex.Labels)-1]
	if !strings.Contains(top, "->") {
		t.Fatalf("top label = %q", top)
	}
	// The top formula's value row must match the verdicts.
	for i := range ex.Steps {
		want := ex.Verdicts[i] == Satisfied
		if ex.Steps[i][len(ex.Labels)-1] != want {
			t.Fatalf("step %d: top value %v vs verdict %v", i, ex.Steps[i][len(ex.Labels)-1], ex.Verdicts[i])
		}
	}
	out := ex.String()
	for _, want := range []string{"verdict", "radio = 0", "✗"} {
		if !strings.Contains(out, want) {
			t.Fatalf("explanation table missing %q:\n%s", want, out)
		}
	}
}

func TestExplainError(t *testing.T) {
	prog := MustCompile(logic.MustParseFormula("q = 1"))
	if _, err := Explain(prog, []logic.State{logic.StateFromMap(nil)}); err == nil {
		t.Fatalf("expected unbound-variable error")
	}
}

// TestExplainLabelAlignment: for random formulas, the reconstructed
// labels align with the compiled nodes (same count, top label = the
// formula, and the top row equals the reference semantics).
func TestExplainLabelAlignment(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	vars := []string{"a", "b"}
	for iter := 0; iter < 150; iter++ {
		f := logic.GenFormula(rng, vars, 3)
		prog, err := Compile(f)
		if err != nil {
			t.Fatal(err)
		}
		states := logic.GenStates(rng, vars, 1+rng.Intn(6))
		ex, err := Explain(prog, states)
		if err != nil {
			t.Fatal(err)
		}
		if len(ex.Labels) != len(ex.Steps[0]) {
			t.Fatalf("formula %q: %d labels vs %d nodes", f, len(ex.Labels), len(ex.Steps[0]))
		}
		want, err := logic.EvalTrace(f, states)
		if err != nil {
			t.Fatal(err)
		}
		for i := range states {
			if ex.Steps[i][len(ex.Labels)-1] != want[i] {
				t.Fatalf("formula %q step %d: explanation top %v, reference %v", f, i, ex.Steps[i][len(ex.Labels)-1], want[i])
			}
		}
	}
}

func TestMinimizePreservesBehaviour(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vars := []string{"a", "b"}
	shrunk := 0
	for iter := 0; iter < 150; iter++ {
		f := logic.GenFormula(rng, vars, 3)
		prog, err := Compile(f)
		if err != nil {
			t.Fatal(err)
		}
		if len(prog.Atoms()) > 5 {
			continue
		}
		fsm, err := BuildFSM(prog, 0)
		if err != nil {
			t.Fatal(err)
		}
		min := fsm.Minimize()
		if min.NumStates() > fsm.NumStates() {
			t.Fatalf("minimization grew the machine")
		}
		if min.NumStates() < fsm.NumStates() {
			shrunk++
		}
		// Random word equivalence.
		nsym := 1 << len(prog.Atoms())
		for trial := 0; trial < 10; trial++ {
			word := make([]int, 1+rng.Intn(12))
			for i := range word {
				word[i] = rng.Intn(nsym)
			}
			if fsm.Run(word) != min.Run(word) {
				t.Fatalf("formula %q: minimized FSM diverges on %v", f, word)
			}
		}
	}
	if shrunk == 0 {
		t.Logf("no machine shrank (formulas were already minimal)")
	}
}

func TestMinimizeCollapsesRedundancy(t *testing.T) {
	// a = 1 \/ !(a = 1) is constantly true; all states behave alike.
	prog := MustCompile(logic.MustParseFormula("(.) (a = 1 \\/ !(a = 1))"))
	fsm, err := BuildFSM(prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	min := fsm.Minimize()
	if min.NumStates() != 1 {
		t.Fatalf("constant-true monitor minimized to %d states, want 1", min.NumStates())
	}
}

package monitor

import (
	"fmt"
	"strings"
)

// FSM is the monitor made explicit as a finite state machine, the
// representation §4 of the paper mentions for storing property state
// at lattice nodes. States are the reachable monitor keys; the input
// alphabet is the set of truth-value assignments to the formula's
// atomic predicates (2^|atoms| symbols); each transition carries the
// verdict the monitor produces on that step.
//
// The FSM is primarily a debugging and documentation artifact (it can
// be rendered with DOT). The analyzers never build it whole: the
// lattice level step memoizes the transitions it takes, keyed by
// (monitor key, symbol), for one level at a time, and steps the
// bit-state monitor (StepBits) only on a memo miss; both behave
// identically (see TestFSMEquivalence).
type FSM struct {
	// Atoms are the predicate strings, index-aligned with symbol bits:
	// symbol s assigns Atoms[i] the truth value of bit i of s.
	Atoms []string
	// Keys are the reachable monitor state keys; state 0 is the
	// pre-initial state.
	Keys []uint64
	// Trans[s][sym] is the successor state index.
	Trans [][]int
	// Verdicts[s][sym] is the verdict emitted on that transition.
	Verdicts [][]Verdict
}

// MaxFSMAtoms bounds the alphabet size (2^atoms symbols).
const MaxFSMAtoms = 12

// BuildFSM enumerates the monitor's reachable state machine by
// breadth-first exploration. maxStates bounds the construction
// (0 = 4096).
func BuildFSM(p *Program, maxStates int) (*FSM, error) {
	if len(p.atoms) > MaxFSMAtoms {
		return nil, fmt.Errorf("monitor: formula has %d atoms; FSM alphabet would have 2^%d symbols", len(p.atoms), len(p.atoms))
	}
	if maxStates == 0 {
		maxStates = 4096
	}
	f := &FSM{}
	for _, a := range p.atoms {
		f.Atoms = append(f.Atoms, a.String())
	}
	nsym := 1 << len(p.atoms)

	m := p.NewMonitor()
	index := map[uint64]int{m.Key(): 0}
	f.Keys = []uint64{m.Key()}
	queue := []uint64{m.Key()}

	for len(queue) > 0 {
		key := queue[0]
		queue = queue[1:]
		trans := make([]int, nsym)
		verdicts := make([]Verdict, nsym)
		for sym := 0; sym < nsym; sym++ {
			m.Restore(key)
			verdicts[sym] = m.StepBits(uint64(sym))
			nk := m.Key()
			to, ok := index[nk]
			if !ok {
				to = len(f.Keys)
				if to >= maxStates {
					return nil, fmt.Errorf("monitor: FSM exceeds %d states", maxStates)
				}
				index[nk] = to
				f.Keys = append(f.Keys, nk)
				queue = append(queue, nk)
			}
			trans[sym] = to
		}
		f.Trans = append(f.Trans, trans)
		f.Verdicts = append(f.Verdicts, verdicts)
	}
	return f, nil
}

// NumStates returns the number of reachable states.
func (f *FSM) NumStates() int { return len(f.Keys) }

// Run executes the FSM over a symbol sequence from the initial state,
// returning the index of the first Violated transition or -1.
func (f *FSM) Run(symbols []int) int {
	s := 0
	for i, sym := range symbols {
		if f.Verdicts[s][sym] == Violated {
			return i
		}
		s = f.Trans[s][sym]
	}
	return -1
}

// DOT renders the FSM for Graphviz. Transitions are labelled with the
// symbol's atom valuation (bit i = Atoms[i]); violating transitions go
// to a dedicated "violation" sink node.
func (f *FSM) DOT() string {
	var b strings.Builder
	b.WriteString("digraph monitor {\n  rankdir=LR;\n  node [shape=circle];\n")
	fmt.Fprintf(&b, "  legend [shape=note, label=\"%s\"];\n", strings.Join(f.Atoms, "\\n"))
	b.WriteString("  bad [shape=doublecircle, label=\"violation\"];\n")
	for s := range f.Trans {
		for sym := range f.Trans[s] {
			label := f.symLabel(sym)
			if f.Verdicts[s][sym] == Violated {
				fmt.Fprintf(&b, "  s%d -> bad [label=\"%s\", color=red];\n", s, label)
			} else {
				fmt.Fprintf(&b, "  s%d -> s%d [label=\"%s\"];\n", s, f.Trans[s][sym], label)
			}
		}
	}
	b.WriteString("}\n")
	return b.String()
}

func (f *FSM) symLabel(sym int) string {
	bits := make([]byte, len(f.Atoms))
	for i := range bits {
		if sym&(1<<i) != 0 {
			bits[i] = '1'
		} else {
			bits[i] = '0'
		}
	}
	return string(bits)
}

// Minimize returns the language-equivalent FSM with the fewest states,
// by Moore-style partition refinement over the transition/verdict
// structure (the machine is a Mealy machine: verdicts label
// transitions). The initial partition groups states with identical
// verdict rows; refinement splits groups whose members disagree on a
// successor's group for some symbol.
func (f *FSM) Minimize() *FSM {
	n := len(f.Keys)
	if n == 0 {
		return f
	}
	nsym := len(f.Trans[0])

	// Initial partition: by verdict row.
	group := make([]int, n)
	sig := map[string]int{}
	for s := 0; s < n; s++ {
		key := fmt.Sprint(f.Verdicts[s])
		g, ok := sig[key]
		if !ok {
			g = len(sig)
			sig[key] = g
		}
		group[s] = g
	}

	for {
		next := make([]int, n)
		sig := map[string]int{}
		for s := 0; s < n; s++ {
			var b strings.Builder
			fmt.Fprintf(&b, "%d", group[s])
			for sym := 0; sym < nsym; sym++ {
				fmt.Fprintf(&b, ",%d", group[f.Trans[s][sym]])
			}
			key := b.String()
			g, ok := sig[key]
			if !ok {
				g = len(sig)
				sig[key] = g
			}
			next[s] = g
		}
		same := true
		for s := range group {
			if group[s] != next[s] {
				same = false
				break
			}
		}
		group = next
		if same {
			break
		}
	}

	// Rebuild with group representatives, group of state 0 first.
	groups := 0
	for _, g := range group {
		if g+1 > groups {
			groups = g + 1
		}
	}
	order := make([]int, 0, groups)     // new index -> group id
	newIdx := make(map[int]int, groups) // group id -> new index
	pick := make([]int, groups)         // group id -> representative state
	seen := make([]bool, groups)
	add := func(s int) {
		g := group[s]
		if !seen[g] {
			seen[g] = true
			newIdx[g] = len(order)
			order = append(order, g)
			pick[g] = s
		}
	}
	add(0)
	for s := 1; s < n; s++ {
		add(s)
	}

	out := &FSM{Atoms: f.Atoms}
	for _, g := range order {
		s := pick[g]
		out.Keys = append(out.Keys, f.Keys[s])
		trans := make([]int, nsym)
		verd := make([]Verdict, nsym)
		for sym := 0; sym < nsym; sym++ {
			trans[sym] = newIdx[group[f.Trans[s][sym]]]
			verd[sym] = f.Verdicts[s][sym]
		}
		out.Trans = append(out.Trans, trans)
		out.Verdicts = append(out.Verdicts, verd)
	}
	return out
}

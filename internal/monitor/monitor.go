// Package monitor synthesizes online monitors from past-time LTL
// formulas (§4: "if the property ... can be translated into a finite
// state machine or if one can synthesize online monitors for it, like
// we did for safety properties, then one can analyze all the
// multithreaded runs in parallel, as the computation lattice is
// built").
//
// A Monitor carries one bit per temporal subformula — the subformula's
// value in the previous state — so its entire state fits in a machine
// word. That is what makes the predictive analysis of the computation
// lattice feasible: monitor states are attached to lattice nodes,
// cloned when paths branch, and deduplicated when paths merge, with
// only one lattice level in memory at a time.
package monitor

import (
	"fmt"

	"gompax/internal/logic"
)

// Verdict is the outcome of stepping a monitor into a state.
type Verdict uint8

const (
	// Satisfied means the formula holds in the current state (the run
	// so far is acceptable).
	Satisfied Verdict = iota
	// Violated means the formula is false in the current state: the
	// safety property has been violated by this run prefix.
	Violated
)

func (v Verdict) String() string {
	if v == Violated {
		return "violated"
	}
	return "satisfied"
}

type nodeKind uint8

const (
	nLit nodeKind = iota
	nPred
	nNot
	nAnd
	nOr
	nImplies
	nIff
	nPrev
	nAlways
	nEventually
	nSince
	nInterval
)

// node is one subformula in bottom-up evaluation order: children always
// appear before their parents in the program.
type node struct {
	kind nodeKind
	lit  bool
	atom int // index into Program.atoms for nPred
	c1   int // first child index (or -1)
	c2   int // second child index (or -1)
	bit  int // temporal state bit index (or -1)
}

// Program is the compiled, immutable form of a formula, shared by all
// monitor instances for that formula.
type Program struct {
	nodes    []node
	atoms    []logic.Pred // distinct atomic predicates, deduplicated
	bits     int
	formula  logic.Formula
	varNames []string
}

// MaxTemporalSubformulas bounds the number of temporal operators a
// formula may contain so monitor state fits in a single uint64 (one
// bit is reserved for the started flag).
const MaxTemporalSubformulas = 63

// MaxAtoms bounds the number of distinct atomic predicates a formula
// may contain so one state's atom valuation fits in a single uint64
// (AtomBits).
const MaxAtoms = 64

// Compile translates a formula into an evaluation program.
func Compile(f logic.Formula) (*Program, error) {
	p := &Program{formula: f, varNames: logic.Vars(f)}
	if _, err := p.build(f); err != nil {
		return nil, err
	}
	mPrograms.Inc()
	return p, nil
}

// MustCompile is Compile that panics on error.
func MustCompile(f logic.Formula) *Program {
	p, err := Compile(f)
	if err != nil {
		panic(err)
	}
	return p
}

func (p *Program) build(f logic.Formula) (int, error) {
	n := node{c1: -1, c2: -1, bit: -1}
	var err error
	switch g := f.(type) {
	case logic.BoolLit:
		n.kind, n.lit = nLit, g.Value
	case logic.Pred:
		n.kind, n.atom = nPred, p.internAtom(g)
	case logic.Not:
		n.kind = nNot
		if n.c1, err = p.build(g.X); err != nil {
			return 0, err
		}
	case logic.And:
		n.kind = nAnd
		if n.c1, n.c2, err = p.build2(g.L, g.R); err != nil {
			return 0, err
		}
	case logic.Or:
		n.kind = nOr
		if n.c1, n.c2, err = p.build2(g.L, g.R); err != nil {
			return 0, err
		}
	case logic.Implies:
		n.kind = nImplies
		if n.c1, n.c2, err = p.build2(g.L, g.R); err != nil {
			return 0, err
		}
	case logic.Iff:
		n.kind = nIff
		if n.c1, n.c2, err = p.build2(g.L, g.R); err != nil {
			return 0, err
		}
	case logic.Prev:
		n.kind = nPrev
		if n.c1, err = p.build(g.X); err != nil {
			return 0, err
		}
		n.bit = p.takeBit()
	case logic.AlwaysPast:
		n.kind = nAlways
		if n.c1, err = p.build(g.X); err != nil {
			return 0, err
		}
		n.bit = p.takeBit()
	case logic.EventuallyPast:
		n.kind = nEventually
		if n.c1, err = p.build(g.X); err != nil {
			return 0, err
		}
		n.bit = p.takeBit()
	case logic.Since:
		n.kind = nSince
		if n.c1, n.c2, err = p.build2(g.L, g.R); err != nil {
			return 0, err
		}
		n.bit = p.takeBit()
	case logic.Start:
		// start(phi) abbreviates phi /\ !(.)phi; because (.)phi equals
		// phi in the initial state, start is false there, matching the
		// reference semantics.
		return p.build(logic.And{L: g.X, R: logic.Not{X: logic.Prev{X: g.X}}})
	case logic.End:
		return p.build(logic.And{L: logic.Not{X: g.X}, R: logic.Prev{X: g.X}})
	case logic.Interval:
		n.kind = nInterval
		if n.c1, n.c2, err = p.build2(g.P, g.Q); err != nil {
			return 0, err
		}
		n.bit = p.takeBit()
	default:
		return 0, fmt.Errorf("monitor: unknown formula node %T", f)
	}
	if p.bits > MaxTemporalSubformulas {
		return 0, fmt.Errorf("monitor: formula has more than %d temporal subformulas", MaxTemporalSubformulas)
	}
	if len(p.atoms) > MaxAtoms {
		return 0, fmt.Errorf("monitor: formula has more than %d distinct atomic predicates", MaxAtoms)
	}
	p.nodes = append(p.nodes, n)
	return len(p.nodes) - 1, nil
}

func (p *Program) build2(l, r logic.Formula) (int, int, error) {
	c1, err := p.build(l)
	if err != nil {
		return 0, 0, err
	}
	c2, err := p.build(r)
	if err != nil {
		return 0, 0, err
	}
	return c1, c2, nil
}

// internAtom returns the index of an atomic predicate, deduplicating
// syntactically identical atoms so each is evaluated once per step.
func (p *Program) internAtom(g logic.Pred) int {
	key := g.String()
	for i, a := range p.atoms {
		if a.String() == key {
			return i
		}
	}
	p.atoms = append(p.atoms, g)
	return len(p.atoms) - 1
}

func (p *Program) takeBit() int {
	b := p.bits
	p.bits++
	return b
}

// Formula returns the source formula.
func (p *Program) Formula() logic.Formula { return p.formula }

// Vars returns the sorted relevant variables of the formula.
func (p *Program) Vars() []string { return p.varNames }

// TemporalBits returns the number of temporal state bits the program
// uses.
func (p *Program) TemporalBits() int { return p.bits }

// Atoms returns the distinct atomic predicates of the formula, in
// evaluation order. The monitor's behaviour depends on the state only
// through these atoms' truth values.
func (p *Program) Atoms() []logic.Pred { return append([]logic.Pred(nil), p.atoms...) }

// AtomBits evaluates the program's atomic predicates in env and packs
// their truth values into one word: bit i holds Atoms()[i]. The
// monitor depends on a state only through this word (StepBits).
func (p *Program) AtomBits(env logic.Env) (uint64, error) {
	var bits uint64
	for i, a := range p.atoms {
		v, err := a.Holds(env)
		if err != nil {
			return 0, err
		}
		if v {
			bits |= 1 << uint(i)
		}
	}
	return bits, nil
}

// NewMonitor returns a fresh monitor in the pre-initial state.
func (p *Program) NewMonitor() *Monitor {
	return &Monitor{prog: p, scratch: make([]bool, len(p.nodes))}
}

const startedBit = 63

// Monitor is an online monitor instance: the compiled program plus the
// temporal state bits. Monitors are cheap to copy (Clone) and compare
// (Key), which the predictive analyzer relies on when it runs one
// monitor per path through the computation lattice.
type Monitor struct {
	prog    *Program
	state   uint64 // temporal bits, plus startedBit once Step has run
	scratch []bool // per-node evaluation buffer, reused across steps
}

// Clone returns an independent monitor with the same state.
func (m *Monitor) Clone() *Monitor {
	return &Monitor{prog: m.prog, state: m.state, scratch: make([]bool, len(m.prog.nodes))}
}

// Key returns the monitor's complete state; two monitors of the same
// program with equal keys behave identically forever after.
func (m *Monitor) Key() uint64 { return m.state }

// Started reports whether the monitor has consumed at least one state.
func (m *Monitor) Started() bool { return m.state&(1<<startedBit) != 0 }

// Restore sets the monitor state to a previously obtained Key.
func (m *Monitor) Restore(key uint64) { m.state = key }

func (m *Monitor) bit(i int) bool { return m.state&(1<<uint(i)) != 0 }

// Step advances the monitor into the next state of the run and returns
// the formula's verdict there: AtomBits followed by StepBits.
func (m *Monitor) Step(env logic.Env) (Verdict, error) {
	bits, err := m.prog.AtomBits(env)
	if err != nil {
		return Violated, err
	}
	return m.StepBits(bits), nil
}

// StepBits advances the monitor given the state's atom valuation as
// AtomBits packs it (bit i holds Atoms()[i]). The monitor's behaviour
// is fully determined by this word, which is what makes the explicit
// FSM construction (BuildFSM) and the lattice level step's per-level
// transition memo possible.
func (m *Monitor) StepBits(bits uint64) Verdict {
	cur := m.scratch
	started := m.Started()
	for i, nd := range m.prog.nodes {
		switch nd.kind {
		case nLit:
			cur[i] = nd.lit
		case nPred:
			cur[i] = bits&(1<<uint(nd.atom)) != 0
		case nNot:
			cur[i] = !cur[nd.c1]
		case nAnd:
			cur[i] = cur[nd.c1] && cur[nd.c2]
		case nOr:
			cur[i] = cur[nd.c1] || cur[nd.c2]
		case nImplies:
			cur[i] = !cur[nd.c1] || cur[nd.c2]
		case nIff:
			cur[i] = cur[nd.c1] == cur[nd.c2]
		case nPrev:
			if started {
				cur[i] = m.bit(nd.bit)
			} else {
				cur[i] = cur[nd.c1]
			}
		case nAlways:
			if started {
				cur[i] = m.bit(nd.bit) && cur[nd.c1]
			} else {
				cur[i] = cur[nd.c1]
			}
		case nEventually:
			cur[i] = cur[nd.c1] || (started && m.bit(nd.bit))
		case nSince:
			// phi S psi  =  psi \/ (phi /\ (.)(phi S psi))
			cur[i] = cur[nd.c2] || (cur[nd.c1] && started && m.bit(nd.bit))
		case nInterval:
			// [p,q)  =  !q /\ (p \/ (.)[p,q))
			cur[i] = !cur[nd.c2] && (cur[nd.c1] || (started && m.bit(nd.bit)))
		}
	}

	// Commit the new temporal bits.
	next := uint64(1) << startedBit
	for i, nd := range m.prog.nodes {
		if nd.bit < 0 {
			continue
		}
		v := cur[i]
		if nd.kind == nPrev {
			// Prev stores the child's current value, to be read next step.
			v = cur[nd.c1]
		}
		if v {
			next |= 1 << uint(nd.bit)
		}
	}
	m.state = next

	if cur[len(cur)-1] {
		return Satisfied
	}
	return Violated
}

// CheckTrace runs a fresh monitor over a state sequence and returns the
// index of the first violating state, or -1 if the property holds
// throughout. This is the single-run analysis of JPAX and Java-MAC —
// the baseline the paper's predictive technique improves on.
func CheckTrace(p *Program, states []logic.State) (int, error) {
	m := p.NewMonitor()
	steps := 0
	defer func() { mTraceSteps.Add(uint64(steps)) }()
	for i, s := range states {
		v, err := m.Step(s)
		if err != nil {
			return -1, err
		}
		steps++
		if v == Violated {
			mTraceChecks.With("violated").Inc()
			return i, nil
		}
	}
	mTraceChecks.With("satisfied").Inc()
	return -1, nil
}

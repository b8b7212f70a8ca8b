// Package logic implements the specification language of JMPaX (§4): state
// predicates over the shared variables (full integer expressions), and
// past-time linear temporal logic with the interval operator [p, q),
// e.g. the paper's property
//
//	(x > 0) -> [y = 0, y > z)
//
// — "if x > 0 then y = 0 has been true in the past, and since then
// y > z was always false".
//
// The package provides the AST, a lexer and parser for a concrete
// syntax, expression evaluation over program states, and relevant-
// variable extraction (the instrumentor derives the relevant event set
// R from the formula's variables, §4.1).
package logic

import (
	"fmt"
	"sort"
	"strings"
)

// State is an immutable assignment of integer values to (relevant)
// shared variables. Functional updates share storage where possible;
// Key gives a canonical identity usable for deduplicating lattice
// nodes.
type State struct {
	names []string // sorted
	vals  []int64
}

// StateFromMap builds a state from a map snapshot.
func StateFromMap(m map[string]int64) State {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	vals := make([]int64, len(names))
	for i, k := range names {
		vals[i] = m[k]
	}
	return State{names: names, vals: vals}
}

// Lookup returns the value bound to name.
func (s State) Lookup(name string) (int64, bool) {
	if i, ok := slotOf(s.names, name); ok {
		return s.vals[i], true
	}
	return 0, false
}

// Vars returns the sorted variable names of the state.
func (s State) Vars() []string { return s.names }

// Len returns the number of bound variables.
func (s State) Len() int { return len(s.names) }

// Slot returns the position of name in Vars: its slot in a value
// vector over this state's variables.
func (s State) Slot(name string) (int, bool) { return slotOf(s.names, name) }

// Values returns a copy of the state's values, one per slot of Vars.
func (s State) Values() []int64 { return append([]int64(nil), s.vals...) }

// WithValues returns the state binding s's variables to a copy of
// vals, one value per slot of Vars. It shares s's names.
func (s State) WithValues(vals []int64) State {
	if len(vals) != len(s.names) {
		panic("logic: WithValues needs one value per variable")
	}
	return State{names: s.names, vals: append([]int64(nil), vals...)}
}

// With returns a copy of s with name bound to v. If name is not
// already bound it is inserted.
func (s State) With(name string, v int64) State {
	i := sort.SearchStrings(s.names, name)
	if i < len(s.names) && s.names[i] == name {
		vals := make([]int64, len(s.vals))
		copy(vals, s.vals)
		vals[i] = v
		return State{names: s.names, vals: vals}
	}
	names := make([]string, 0, len(s.names)+1)
	vals := make([]int64, 0, len(s.vals)+1)
	names = append(names, s.names[:i]...)
	vals = append(vals, s.vals[:i]...)
	names = append(names, name)
	vals = append(vals, v)
	names = append(names, s.names[i:]...)
	vals = append(vals, s.vals[i:]...)
	return State{names: names, vals: vals}
}

// Key returns a canonical string identity for the state.
func (s State) Key() string {
	var b strings.Builder
	for i, n := range s.names {
		if i > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, "%s=%d", n, s.vals[i])
	}
	return b.String()
}

// Equal reports whether two states bind the same variables to the same
// values.
func (s State) Equal(o State) bool {
	if len(s.names) != len(o.names) {
		return false
	}
	for i := range s.names {
		if s.names[i] != o.names[i] || s.vals[i] != o.vals[i] {
			return false
		}
	}
	return true
}

// Tuple renders the values in the paper's angle-bracket notation,
// ordered by the given variable names, e.g. "<1,1,0>".
func (s State) Tuple(order []string) string {
	var b strings.Builder
	b.WriteByte('<')
	for i, n := range order {
		if i > 0 {
			b.WriteByte(',')
		}
		v, _ := s.Lookup(n)
		fmt.Fprintf(&b, "%d", v)
	}
	b.WriteByte('>')
	return b.String()
}

func (s State) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range s.names {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%d", n, s.vals[i])
	}
	b.WriteByte('}')
	return b.String()
}

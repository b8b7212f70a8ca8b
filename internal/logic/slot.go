package logic

import "sort"

// A slot is a variable's position in a fixed, sorted variable order:
// the Vars of a State. A value vector holds one value per slot, so a
// predicate compiled to slot reads (CompilePred) evaluates over it
// with no name lookups. The predictive analyzer keeps each lattice
// cut's state this way, in its session's order.

// slotOf returns name's position in the sorted names.
func slotOf(names []string, name string) (int, bool) {
	i := sort.SearchStrings(names, name)
	return i, i < len(names) && names[i] == name
}

// slotKind tells what a compiled expression node computes.
type slotKind uint8

const (
	slotLit     slotKind = iota // the literal x
	slotRead                    // the value in slot x
	slotUnbound                 // an error: src names a variable no slot holds
	slotNeg                     // -kids[0]
	slotBin                     // kids[0] op kids[1]
)

// slotExpr is an Expr compiled to slot reads. Leaves are stored
// inline, so a comparison of variables and literals compiles to no
// allocation beyond its SlotPred.
type slotExpr struct {
	kind slotKind
	op   ArithOp
	x    int64
	kids *[2]slotExpr
	src  Expr // the source node, named in errors
}

// SlotPred is a Pred compiled to slot reads over one variable order.
// Over a value vector it returns what the Pred returns over the State
// binding that order to those values, error text included: a variable
// the order lacks fails when the predicate is evaluated, not when it
// is compiled, as Holds fails only when it looks the variable up.
type SlotPred struct {
	op   CmpOp
	l, r slotExpr
}

// CompilePred compiles p to slot reads over vars, which must be sorted
// (as State.Vars returns them).
func CompilePred(p Pred, vars []string) SlotPred {
	return SlotPred{op: p.Op, l: compileExpr(p.L, vars), r: compileExpr(p.R, vars)}
}

func compileExpr(e Expr, vars []string) slotExpr {
	switch g := e.(type) {
	case IntLit:
		return slotExpr{kind: slotLit, x: g.Value}
	case VarRef:
		if i, ok := slotOf(vars, g.Name); ok {
			return slotExpr{kind: slotRead, x: int64(i)}
		}
		return slotExpr{kind: slotUnbound, src: e}
	case NegExpr:
		return slotExpr{kind: slotNeg, kids: &[2]slotExpr{compileExpr(g.X, vars)}}
	case BinExpr:
		return slotExpr{kind: slotBin, op: g.Op, src: e,
			kids: &[2]slotExpr{compileExpr(g.L, vars), compileExpr(g.R, vars)}}
	}
	panic("logic: unknown expression node")
}

// Holds evaluates the predicate over vals, one value per slot of the
// order it was compiled for.
func (p *SlotPred) Holds(vals []int64) (bool, error) {
	l, err := p.l.eval(vals)
	if err != nil {
		return false, err
	}
	r, err := p.r.eval(vals)
	if err != nil {
		return false, err
	}
	return p.op.apply(l, r), nil
}

func (e *slotExpr) eval(vals []int64) (int64, error) {
	switch e.kind {
	case slotLit:
		return e.x, nil
	case slotRead:
		return vals[e.x], nil
	case slotUnbound:
		return 0, unboundErr(e.src.(VarRef).Name)
	case slotNeg:
		v, err := e.kids[0].eval(vals)
		return -v, err
	}
	l, err := e.kids[0].eval(vals)
	if err != nil {
		return 0, err
	}
	r, err := e.kids[1].eval(vals)
	if err != nil {
		return 0, err
	}
	if v, ok := e.op.apply(l, r); ok {
		return v, nil
	}
	return 0, arithErr(e.op, e.src)
}

package logic

import "fmt"

// Env resolves variable names to values during expression
// evaluation. State implements Env; the MTL interpreter supplies an
// Env that routes shared-variable lookups through instrumented reads.
type Env interface {
	Lookup(name string) (int64, bool)
}

// Expr is an integer-valued expression over shared variables: the
// arithmetic layer under state predicates.
type Expr interface {
	// Eval computes the expression's value in the given environment. A
	// reference to a variable not bound in the environment is an error
	// (the instrumentor guarantees all relevant variables are tracked,
	// so this indicates a configuration bug).
	Eval(env Env) (int64, error)
	// addVars accumulates referenced variable names.
	addVars(set map[string]bool)
	fmt.Stringer
}

// IntLit is an integer literal.
type IntLit struct{ Value int64 }

// Eval returns the literal value.
func (e IntLit) Eval(Env) (int64, error) { return e.Value, nil }
func (e IntLit) addVars(map[string]bool) {}
func (e IntLit) String() string          { return fmt.Sprintf("%d", e.Value) }

// VarRef reads a shared variable.
type VarRef struct{ Name string }

// Eval looks the variable up in the state.
func (e VarRef) Eval(env Env) (int64, error) {
	v, ok := env.Lookup(e.Name)
	if !ok {
		return 0, unboundErr(e.Name)
	}
	return v, nil
}

// unboundErr reports a reference to a variable the environment does
// not bind.
func unboundErr(name string) error {
	return fmt.Errorf("logic: variable %q not bound in environment", name)
}
func (e VarRef) addVars(set map[string]bool) { set[e.Name] = true }
func (e VarRef) String() string              { return e.Name }

// ArithOp is a binary arithmetic operator.
type ArithOp uint8

// Arithmetic operators.
const (
	Add ArithOp = iota
	Sub
	Mul
	Div
	Mod
)

var arithNames = [...]string{Add: "+", Sub: "-", Mul: "*", Div: "/", Mod: "%"}

func (op ArithOp) String() string { return arithNames[op] }

// BinExpr applies a binary arithmetic operator.
type BinExpr struct {
	Op   ArithOp
	L, R Expr
}

// Eval evaluates both operands and applies the operator. Division and
// modulus by zero are reported as errors rather than panics.
func (e BinExpr) Eval(env Env) (int64, error) {
	l, err := e.L.Eval(env)
	if err != nil {
		return 0, err
	}
	r, err := e.R.Eval(env)
	if err != nil {
		return 0, err
	}
	if v, ok := e.Op.apply(l, r); ok {
		return v, nil
	}
	return 0, arithErr(e.Op, e)
}

// apply computes l op r. It reports false for a division or modulus
// by zero and for an unknown operator; arithErr names the failure.
func (op ArithOp) apply(l, r int64) (int64, bool) {
	switch op {
	case Add:
		return l + r, true
	case Sub:
		return l - r, true
	case Mul:
		return l * r, true
	case Div:
		if r != 0 {
			return l / r, true
		}
	case Mod:
		if r != 0 {
			return l % r, true
		}
	}
	return 0, false
}

// arithErr is the error of a failed apply of op in the expression src.
func arithErr(op ArithOp, src fmt.Stringer) error {
	switch op {
	case Div:
		return fmt.Errorf("logic: division by zero in %s", src)
	case Mod:
		return fmt.Errorf("logic: modulus by zero in %s", src)
	}
	return fmt.Errorf("logic: unknown arithmetic operator %d", op)
}

func (e BinExpr) addVars(set map[string]bool) {
	e.L.addVars(set)
	e.R.addVars(set)
}

func (e BinExpr) String() string {
	return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R)
}

// NegExpr is unary arithmetic negation.
type NegExpr struct{ X Expr }

// Eval negates the operand.
func (e NegExpr) Eval(env Env) (int64, error) {
	v, err := e.X.Eval(env)
	return -v, err
}
func (e NegExpr) addVars(set map[string]bool) { e.X.addVars(set) }
func (e NegExpr) String() string              { return fmt.Sprintf("(-%s)", e.X) }

// CmpOp is a comparison operator.
type CmpOp uint8

// Comparison operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

var cmpNames = [...]string{EQ: "=", NE: "!=", LT: "<", LE: "<=", GT: ">", GE: ">="}

func (op CmpOp) String() string { return cmpNames[op] }

// apply evaluates the comparison.
func (op CmpOp) apply(l, r int64) bool {
	switch op {
	case EQ:
		return l == r
	case NE:
		return l != r
	case LT:
		return l < r
	case LE:
		return l <= r
	case GT:
		return l > r
	case GE:
		return l >= r
	}
	return false
}

// ExprVars returns the sorted variable names referenced by an expression.
func ExprVars(e Expr) []string {
	set := map[string]bool{}
	e.addVars(set)
	return sortedKeys(set)
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	// insertion sort keeps this dependency-free and fast for the tiny
	// sets formulas produce
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

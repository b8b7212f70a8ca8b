// Package mtl defines MTL ("multithreaded language"), the small
// imperative language this repository uses as its instrumentation
// substrate. The paper instruments Java bytecode; an MTL program plays
// the role of the Java program under test: it has shared integer
// variables, locks, condition variables and a fixed set of threads,
// and its interpreter (package interp) yields control at every shared
// access, which is exactly where the paper's instrumentation inserts
// Algorithm A.
//
// Example (the paper's Fig. 1 flight controller):
//
//	shared landing = 0, approved = 0, radio = 1;
//
//	thread controller {
//	    if (radio == 0) { approved = 0; } else { approved = 1; }
//	    if (approved == 1) { landing = 1; }
//	}
//
//	thread radioman {
//	    skip;
//	    radio = 0;
//	}
//
// The package provides the AST, lexer, parser, static checks and a
// compiler to the stack-machine code executed by package interp.
package mtl

import (
	"fmt"
	"strings"

	"gompax/internal/logic"
)

// Program is a parsed MTL program.
type Program struct {
	// Shared lists the shared variable declarations in source order.
	Shared []SharedDecl
	// Mutexes and Conds list declared lock and condition variable names.
	Mutexes []string
	Conds   []string
	// Chans lists declared channels in source order.
	Chans []ChanDecl
	// Threads lists the thread bodies in declaration order; thread i in
	// the program is thread t_{i+1} in the paper's numbering.
	Threads []ThreadDecl
	// Tasks are thread bodies that are not started at program entry;
	// they run when some thread executes `spawn <task>;` — the dynamic
	// thread creation extension of §2. Each spawn creates a fresh
	// instance.
	Tasks []ThreadDecl
}

// SharedDecl declares a shared variable with an initial value.
type SharedDecl struct {
	Name string
	Init int64
}

// ChanDecl declares a channel of int values. Cap 0 is an unbuffered
// (rendezvous) channel; Cap > 0 is a FIFO buffer of that capacity.
type ChanDecl struct {
	Name string
	Cap  int64
}

// ThreadDecl is one declared thread.
type ThreadDecl struct {
	Name string
	Body []Stmt
}

// InitialState returns the initial assignment of the shared variables.
func (p *Program) InitialState() map[string]int64 {
	m := make(map[string]int64, len(p.Shared))
	for _, d := range p.Shared {
		m[d.Name] = d.Init
	}
	return m
}

// SharedNames returns the declared shared variable names in order.
func (p *Program) SharedNames() []string {
	out := make([]string, len(p.Shared))
	for i, d := range p.Shared {
		out[i] = d.Name
	}
	return out
}

// ThreadNames returns the thread names in order.
func (p *Program) ThreadNames() []string {
	out := make([]string, len(p.Threads))
	for i, d := range p.Threads {
		out[i] = d.Name
	}
	return out
}

// Stmt is an MTL statement.
type Stmt interface {
	stmt()
	writeTo(b *strings.Builder, indent int)
}

// Assign assigns an expression to a shared variable or a local.
type Assign struct {
	Name string
	Expr logic.Expr
}

// VarDecl declares a thread-local variable with an initializer.
type VarDecl struct {
	Name string
	Expr logic.Expr
}

// If is a conditional with optional else branch.
type If struct {
	Cond logic.Formula // non-temporal
	Then []Stmt
	Else []Stmt
}

// While is a loop.
type While struct {
	Cond logic.Formula // non-temporal
	Body []Stmt
}

// LockStmt acquires a declared mutex.
type LockStmt struct{ Name string }

// UnlockStmt releases a declared mutex.
type UnlockStmt struct{ Name string }

// WaitStmt blocks on a condition variable until notified.
type WaitStmt struct{ Name string }

// NotifyStmt wakes one waiter of a condition variable.
type NotifyStmt struct{ Name string }

// NotifyAllStmt wakes all waiters of a condition variable.
type NotifyAllStmt struct{ Name string }

// SpawnStmt starts a new instance of a declared task; the child thread
// causally inherits everything the parent did before the spawn.
type SpawnStmt struct{ Task string }

// Skip is an internal no-op event (the paper's "irrelevant code").
type Skip struct{}

// SendStmt sends the value of an expression into a channel:
// send(c, e); — blocking when the channel is unbuffered with no
// waiting receiver or its buffer is full, and a runtime fault when the
// channel is closed.
type SendStmt struct {
	Chan string
	Expr logic.Expr
}

// RecvStmt receives from a channel: x = recv(c); or recv(c); (value
// discarded when Target is empty). Receiving from a closed, drained
// channel yields zero.
type RecvStmt struct {
	Chan   string
	Target string
}

// CloseStmt closes a channel: close(c);. Subsequent receives drain the
// buffer and then yield zero; subsequent sends fault.
type CloseStmt struct{ Chan string }

// SelectStmt waits for the first ready case among alternative channel
// communications, Go-style; cases are checked in syntactic order and
// the first ready one fires (deterministic MTL semantics, so the
// exhaustive scheduler remains exact ground truth). With a default
// block and no ready case, the default runs immediately.
type SelectStmt struct {
	Cases      []SelectCase
	HasDefault bool
	Default    []Stmt
}

// SelectCase is one communication alternative of a select.
type SelectCase struct {
	// Send distinguishes `case send(c, e)` from `case [x =] recv(c)`.
	Send bool
	Chan string
	// Expr is the sent value (send cases only).
	Expr logic.Expr
	// Target names the variable receiving the value (recv cases;
	// empty = discard).
	Target string
	Body   []Stmt
}

func (Assign) stmt()        {}
func (VarDecl) stmt()       {}
func (If) stmt()            {}
func (While) stmt()         {}
func (LockStmt) stmt()      {}
func (UnlockStmt) stmt()    {}
func (WaitStmt) stmt()      {}
func (NotifyStmt) stmt()    {}
func (NotifyAllStmt) stmt() {}
func (SpawnStmt) stmt()     {}
func (Skip) stmt()          {}
func (SendStmt) stmt()      {}
func (RecvStmt) stmt()      {}
func (CloseStmt) stmt()     {}
func (SelectStmt) stmt()    {}

func ind(b *strings.Builder, n int) {
	for i := 0; i < n; i++ {
		b.WriteString("    ")
	}
}

func writeBlock(b *strings.Builder, stmts []Stmt, indent int) {
	for _, s := range stmts {
		s.writeTo(b, indent)
	}
}

func (s Assign) writeTo(b *strings.Builder, indent int) {
	ind(b, indent)
	fmt.Fprintf(b, "%s = %s;\n", s.Name, s.Expr)
}

func (s VarDecl) writeTo(b *strings.Builder, indent int) {
	ind(b, indent)
	fmt.Fprintf(b, "var %s = %s;\n", s.Name, s.Expr)
}

// condString renders a condition in MTL's concrete syntax (&&, ||, !,
// ==) rather than logic's formula notation.
func condString(f logic.Formula) string {
	switch g := f.(type) {
	case logic.BoolLit:
		if g.Value {
			return "true"
		}
		return "false"
	case logic.Pred:
		op := g.Op.String()
		if op == "=" {
			op = "=="
		}
		return fmt.Sprintf("%s %s %s", g.L, op, g.R)
	case logic.Not:
		return fmt.Sprintf("!(%s)", condString(g.X))
	case logic.And:
		return fmt.Sprintf("(%s && %s)", condString(g.L), condString(g.R))
	case logic.Or:
		return fmt.Sprintf("(%s || %s)", condString(g.L), condString(g.R))
	case logic.Implies:
		return fmt.Sprintf("(!(%s) || %s)", condString(g.L), condString(g.R))
	case logic.Iff:
		return fmt.Sprintf("((%s && %s) || (!(%s) && !(%s)))",
			condString(g.L), condString(g.R), condString(g.L), condString(g.R))
	default:
		return f.String()
	}
}

func (s If) writeTo(b *strings.Builder, indent int) {
	ind(b, indent)
	fmt.Fprintf(b, "if (%s) {\n", condString(s.Cond))
	writeBlock(b, s.Then, indent+1)
	if len(s.Else) > 0 {
		ind(b, indent)
		b.WriteString("} else {\n")
		writeBlock(b, s.Else, indent+1)
	}
	ind(b, indent)
	b.WriteString("}\n")
}

func (s While) writeTo(b *strings.Builder, indent int) {
	ind(b, indent)
	fmt.Fprintf(b, "while (%s) {\n", condString(s.Cond))
	writeBlock(b, s.Body, indent+1)
	ind(b, indent)
	b.WriteString("}\n")
}

func (s LockStmt) writeTo(b *strings.Builder, indent int) {
	ind(b, indent)
	fmt.Fprintf(b, "lock(%s);\n", s.Name)
}

func (s UnlockStmt) writeTo(b *strings.Builder, indent int) {
	ind(b, indent)
	fmt.Fprintf(b, "unlock(%s);\n", s.Name)
}

func (s WaitStmt) writeTo(b *strings.Builder, indent int) {
	ind(b, indent)
	fmt.Fprintf(b, "wait(%s);\n", s.Name)
}

func (s NotifyStmt) writeTo(b *strings.Builder, indent int) {
	ind(b, indent)
	fmt.Fprintf(b, "notify(%s);\n", s.Name)
}

func (s NotifyAllStmt) writeTo(b *strings.Builder, indent int) {
	ind(b, indent)
	fmt.Fprintf(b, "notifyall(%s);\n", s.Name)
}

func (s SpawnStmt) writeTo(b *strings.Builder, indent int) {
	ind(b, indent)
	fmt.Fprintf(b, "spawn %s;\n", s.Task)
}

func (s Skip) writeTo(b *strings.Builder, indent int) {
	ind(b, indent)
	b.WriteString("skip;\n")
}

func (s SendStmt) writeTo(b *strings.Builder, indent int) {
	ind(b, indent)
	fmt.Fprintf(b, "send(%s, %s);\n", s.Chan, s.Expr)
}

func (s RecvStmt) writeTo(b *strings.Builder, indent int) {
	ind(b, indent)
	if s.Target != "" {
		fmt.Fprintf(b, "%s = recv(%s);\n", s.Target, s.Chan)
	} else {
		fmt.Fprintf(b, "recv(%s);\n", s.Chan)
	}
}

func (s CloseStmt) writeTo(b *strings.Builder, indent int) {
	ind(b, indent)
	fmt.Fprintf(b, "close(%s);\n", s.Chan)
}

func (s SelectStmt) writeTo(b *strings.Builder, indent int) {
	ind(b, indent)
	b.WriteString("select {\n")
	for _, c := range s.Cases {
		ind(b, indent)
		switch {
		case c.Send:
			fmt.Fprintf(b, "case send(%s, %s) {\n", c.Chan, c.Expr)
		case c.Target != "":
			fmt.Fprintf(b, "case %s = recv(%s) {\n", c.Target, c.Chan)
		default:
			fmt.Fprintf(b, "case recv(%s) {\n", c.Chan)
		}
		writeBlock(b, c.Body, indent+1)
		ind(b, indent)
		b.WriteString("}\n")
	}
	if s.HasDefault {
		ind(b, indent)
		b.WriteString("default {\n")
		writeBlock(b, s.Default, indent+1)
		ind(b, indent)
		b.WriteString("}\n")
	}
	ind(b, indent)
	b.WriteString("}\n")
}

// String renders the program back to parseable MTL source.
func (p *Program) String() string {
	var b strings.Builder
	for _, d := range p.Shared {
		fmt.Fprintf(&b, "shared %s = %d;\n", d.Name, d.Init)
	}
	for _, m := range p.Mutexes {
		fmt.Fprintf(&b, "mutex %s;\n", m)
	}
	for _, c := range p.Conds {
		fmt.Fprintf(&b, "cond %s;\n", c)
	}
	for _, c := range p.Chans {
		if c.Cap > 0 {
			fmt.Fprintf(&b, "chan %s = %d;\n", c.Name, c.Cap)
		} else {
			fmt.Fprintf(&b, "chan %s;\n", c.Name)
		}
	}
	for _, t := range p.Threads {
		fmt.Fprintf(&b, "\nthread %s {\n", t.Name)
		writeBlock(&b, t.Body, 1)
		b.WriteString("}\n")
	}
	for _, t := range p.Tasks {
		fmt.Fprintf(&b, "\ntask %s {\n", t.Name)
		writeBlock(&b, t.Body, 1)
		b.WriteString("}\n")
	}
	return b.String()
}

// Package latticecheck is a differential testing harness for the
// lattice explorers: it generates random multithreaded computations
// and cross-checks every analyzer the repo ships — the materialized
// lattice (lattice.Build), the level-by-level analyzer
// (predict.Analyze), the online analyzer (predict.Online)
// and the exhaustive run enumeration — against one another. Any two of
// them disagreeing on per-level cut counts, verdicts or statistics is
// a bug in at least one.
package latticecheck

import (
	"fmt"
	"math/rand"

	"gompax/internal/event"
	"gompax/internal/lattice"
	"gompax/internal/logic"
	"gompax/internal/mvc"
	"gompax/internal/trace"
)

// Case is one randomly generated computation plus a random past-time
// formula over a random subset of its variables.
type Case struct {
	// Threads and Ops describe the generated workload.
	Threads int
	Ops     []trace.Op
	// Relevant is the subset of variables whose writes became messages;
	// the generated formula only mentions these.
	Relevant []string
	// Events are the completed events in execution order.
	Events []event.Event
	// Msgs are the emitted relevant-write messages, in emission order.
	Msgs []event.Message
	// Initial maps every relevant variable to 0.
	Initial logic.State
	// Formula is a random past-time formula over Relevant.
	Formula logic.Formula
	// Comp is the computation assembled from Initial and Msgs.
	Comp *lattice.Computation
}

// Random draws one case: 2..5 threads, 5..40 operations over 2..4
// shared variables, of which a random non-empty subset is relevant.
// The random overlap between the variables the workload touches and
// the variables the property observes is the point: it exercises
// everything from single-message computations to wide multi-thread
// lattices.
func Random(rng *rand.Rand) (Case, error) {
	c := Case{Threads: 2 + rng.Intn(4)}
	vars := 2 + rng.Intn(3)
	c.Ops = trace.RandomOps(rng, trace.GenConfig{
		Threads: c.Threads,
		Vars:    vars,
		Length:  5 + rng.Intn(36),
	})

	// Random non-empty relevant subset.
	for i := 0; i < vars; i++ {
		if rng.Intn(2) == 0 {
			c.Relevant = append(c.Relevant, trace.VarName(i))
		}
	}
	if len(c.Relevant) == 0 {
		c.Relevant = append(c.Relevant, trace.VarName(rng.Intn(vars)))
	}

	c.Events, c.Msgs = trace.Execute(c.Ops, c.Threads, mvc.WritesOf(c.Relevant...))

	im := map[string]int64{}
	for _, v := range c.Relevant {
		im[v] = 0
	}
	c.Initial = logic.StateFromMap(im)
	c.Formula = logic.GenFormula(rng, c.Relevant, 1+rng.Intn(3))

	comp, err := lattice.NewComputation(c.Initial, c.Threads, c.Msgs)
	if err != nil {
		return c, fmt.Errorf("latticecheck: assemble computation: %w", err)
	}
	c.Comp = comp
	return c, nil
}

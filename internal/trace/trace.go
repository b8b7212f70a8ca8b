// Package trace provides workload generators and execution capture
// helpers shared by the property-based tests and the benchmark harness.
// A workload is a sequence of abstract operations (which thread does
// what to which shared variable); executing it through an mvc.Tracker
// yields both the completed event list (the observed execution M) and
// the emitted observer messages.
package trace

import (
	"fmt"
	"math/rand"

	"gompax/internal/event"
	"gompax/internal/mvc"
)

// Op is one abstract operation of a generated workload.
type Op struct {
	Thread int
	Kind   event.Kind
	Var    string
	Value  int64
}

// GenConfig controls random workload generation.
type GenConfig struct {
	Threads int // number of threads (≥1)
	Vars    int // number of shared variables named x0..x{Vars-1}
	Length  int // total number of operations
	// Weights for operation kinds; zero-valued fields get defaults
	// (read 4, write 3, internal 2, sync 1).
	ReadWeight, WriteWeight, InternalWeight, SyncWeight int
}

func (c GenConfig) withDefaults() GenConfig {
	if c.Threads <= 0 {
		c.Threads = 2
	}
	if c.Vars <= 0 {
		c.Vars = 2
	}
	if c.ReadWeight == 0 && c.WriteWeight == 0 && c.InternalWeight == 0 && c.SyncWeight == 0 {
		c.ReadWeight, c.WriteWeight, c.InternalWeight, c.SyncWeight = 4, 3, 2, 1
	}
	return c
}

// VarName returns the canonical generated variable name for index i.
func VarName(i int) string { return fmt.Sprintf("x%d", i) }

// RandomOps generates a random workload. Lock discipline is not
// modelled here (sync ops become acquire/release pairs on random locks
// in program order per thread); the generator is for exercising the
// clock algebra, not the interpreter.
func RandomOps(rng *rand.Rand, cfg GenConfig) []Op {
	cfg = cfg.withDefaults()
	total := cfg.ReadWeight + cfg.WriteWeight + cfg.InternalWeight + cfg.SyncWeight
	ops := make([]Op, 0, cfg.Length)
	held := make([]int, cfg.Threads) // -1 when no lock held
	for i := range held {
		held[i] = -1
	}
	for len(ops) < cfg.Length {
		th := rng.Intn(cfg.Threads)
		x := rng.Intn(total)
		switch {
		case x < cfg.ReadWeight:
			ops = append(ops, Op{Thread: th, Kind: event.Read, Var: VarName(rng.Intn(cfg.Vars))})
		case x < cfg.ReadWeight+cfg.WriteWeight:
			ops = append(ops, Op{Thread: th, Kind: event.Write, Var: VarName(rng.Intn(cfg.Vars)), Value: int64(rng.Intn(100))})
		case x < cfg.ReadWeight+cfg.WriteWeight+cfg.InternalWeight:
			ops = append(ops, Op{Thread: th, Kind: event.Internal})
		default:
			if held[th] >= 0 {
				ops = append(ops, Op{Thread: th, Kind: event.Release, Var: lockName(held[th])})
				held[th] = -1
			} else {
				l := rng.Intn(2)
				ops = append(ops, Op{Thread: th, Kind: event.Acquire, Var: lockName(l)})
				held[th] = l
			}
		}
	}
	// Release any locks still held, keeping traces well formed.
	for th, l := range held {
		if l >= 0 {
			ops = append(ops, Op{Thread: th, Kind: event.Release, Var: lockName(l)})
		}
	}
	return ops
}

func lockName(i int) string { return fmt.Sprintf("#lock%d", i) }

// Execute runs a workload through a fresh Tracker under the given
// relevance policy, returning the completed events in execution order
// and the emitted messages in emission order.
func Execute(ops []Op, threads int, policy mvc.Policy) ([]event.Event, []event.Message) {
	col := &mvc.Collector{}
	tr := mvc.NewTracker(threads, policy, col)
	events := make([]event.Event, 0, len(ops))
	for _, op := range ops {
		e := event.Event{Thread: op.Thread, Kind: op.Kind, Var: op.Var, Value: op.Value}
		events = append(events, tr.Process(e))
	}
	return events, col.Messages
}

// MaxThread returns 1 + the highest thread index appearing in ops, so
// callers can size trackers for hand-written workloads.
func MaxThread(ops []Op) int {
	max := 0
	for _, op := range ops {
		if op.Thread+1 > max {
			max = op.Thread + 1
		}
	}
	return max
}

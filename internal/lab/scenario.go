// Package lab is the declarative scenario laboratory: a seeded grid of
// generated MTL workloads with known behavior classes, each run through
// the full gompax pipeline and scored against ground truth computed by
// the exhaustive scheduler. Where the paper could only say that the
// probability of detecting a violation is "significantly increased" by
// predictive analysis (§1 — JMPaX had no ground truth to measure it
// against), the lab measures per-scenario precision and recall for both
// violation prediction and race prediction, plus wall-time and
// allocation costs, and gates them behind declarative floors
// (BENCH_lab.json) evaluated by `make gate`.
package lab

import (
	"fmt"

	"gompax/internal/progs"
	"gompax/internal/wire"
)

// Behavior classifies what a scenario is built to exhibit. Scoring
// floors are declared per behavior class.
type Behavior string

const (
	// Clean scenarios are fully lock-disciplined: no consistent run
	// violates the property and no data race exists. They measure false
	// positives.
	Clean Behavior = "clean"
	// Racy scenarios contain real data races on unsynchronized
	// variables while the monitored property stays safe.
	Racy Behavior = "racy"
	// Violating scenarios admit interleavings that violate the
	// property, constructed so that the violation is predictable from
	// every observed execution (the property variables have no
	// cross-thread conflicts, so their pulses stay concurrent in every
	// reconstructed computation). Recall below 1.0 here is a bug, not
	// bad luck.
	Violating Behavior = "violating"
	// Chaos scenarios are violating or racy workloads whose observer
	// session runs through a seeded FaultWriter (drops, corruption,
	// bounded reordering). They are scored against the full-trace
	// ground truth: lost events may cost recall, never precision.
	Chaos Behavior = "chaos"
	// Generated scenarios come from progs.Generate: random programs
	// whose behavior label is derived from the computed ground truth
	// rather than declared up front.
	Generated Behavior = "generated"

	// The deep classes scale the pulse templates to hundreds or
	// thousands of threads, where every clock operation is wide.
	// Exhaustive interleaving enumeration is impossible at
	// this scale, so their ground truth is *declared*: the templates
	// are constructed so the truth is exactly known analytically (see
	// buildDeep), and Truth.Declared marks it as such.
	//
	// DeepViolating is PulseViolating at deep scale: every worker's
	// pulse is conflict-free on property variables, so the v0/v1
	// overlap is predictable from every observed run, and with zero
	// contention no data race exists.
	DeepViolating Behavior = "deep-violating"
	// DeepClean is PulseClean at deep scale: every pulse inside the
	// one global critical section. The race detector's sync-only
	// clocks tick at every acquire/release, so the mutex accumulates
	// all workers into genuine `threads`-wide fan-in joins — and no
	// violation, race, or finding of any kind.
	DeepClean Behavior = "deep-clean"

	// The channel classes score the message-passing analyses. Their
	// monitored property holds in every interleaving and they are free
	// of data races, so the violation and race columns stay clean and
	// the msg_* floors are what the class is about. Each template's
	// findings are schedule-invariant (see internal/progs/channels.go),
	// which is why the faulting classes can demand msg precision =
	// recall = 1.00 against exhaustive ground truth.
	//
	// ChanClean is the clean pipeline: balanced produce/consume with a
	// close, no finding in any interleaving (false-positive watch).
	ChanClean Behavior = "chan-clean"
	// ChanClosed admits send-on-closed in every interleaving: observed
	// as a runtime fault when the close wins, predicted from the
	// concurrent clocks when the sends win.
	ChanClosed Behavior = "chan-closed"
	// ChanLost leaves undelivered buffered values at the end of every
	// interleaving.
	ChanLost Behavior = "chan-lost"
	// ChanDeadlock parks one thread forever on a receive (or select)
	// with no causally-possible partner while the rest finish.
	ChanDeadlock Behavior = "chan-deadlock"
	// ChanChaos is a channel workload whose observer session runs
	// through a seeded FaultWriter. Scored like chaos: loss may cost
	// msg recall (the whole-stream analyses abstain on degraded
	// sessions), never msg precision.
	ChanChaos Behavior = "chan-chaos"
)

// isChannel reports whether a behavior is one of the channel classes.
func isChannel(b Behavior) bool {
	switch b {
	case ChanClean, ChanClosed, ChanLost, ChanDeadlock, ChanChaos:
		return true
	}
	return false
}

// Scenario is one declarative grid entry: a program, a property, and
// the seeds that make every run of it reproducible.
type Scenario struct {
	// Name is unique within a grid and stable across runs.
	Name string `json:"name"`
	// Behavior is the scenario's class (which floors apply).
	Behavior Behavior `json:"behavior"`
	// Threads, Pulses and Contention are the scale axes: worker count,
	// write-pulses per worker, and whether a shared noise variable
	// entangles the threads' causal pasts.
	Threads    int `json:"threads"`
	Pulses     int `json:"pulses"`
	Contention int `json:"contention"`
	// Source and Property are the MTL program and safety formula.
	Source   string `json:"-"`
	Property string `json:"property"`
	// Seed derives the observed executions' scheduler seeds.
	Seed int64 `json:"seed"`
	// Runs is how many observed executions are collected (≥1).
	Runs int `json:"runs"`
	// Fault, when non-nil, routes every observer session of the
	// scenario through a FaultWriter with this plan (chaos class).
	Fault *wire.FaultPlan `json:"fault,omitempty"`
	// Base names the scenario this one was derived from (chaos wraps).
	Base string `json:"base,omitempty"`
	// Declared, when non-nil, is the scenario's analytic ground truth
	// and the runner skips exhaustive enumeration (deep classes, whose
	// scale makes enumeration impossible). Declared truth never counts
	// toward the truth-complete gate.
	Declared *Truth `json:"declared,omitempty"`
}

// build materializes one template scenario from the pulse family in
// internal/progs.
func build(behavior Behavior, threads, pulses, contention int, seed int64) Scenario {
	sc := Scenario{
		Name:       fmt.Sprintf("%s-t%d-p%d-c%d", behavior, threads, pulses, contention),
		Behavior:   behavior,
		Threads:    threads,
		Pulses:     pulses,
		Contention: contention,
		Seed:       seed,
		Runs:       3,
	}
	switch behavior {
	case Clean:
		sc.Source, sc.Property = progs.PulseClean(threads, pulses, contention), progs.PulseOverlapProperty
	case Racy:
		sc.Source, sc.Property = progs.PulseRacy(threads, pulses, contention), progs.PulseRacyProperty
	case Violating:
		sc.Source, sc.Property = progs.PulseViolating(threads, pulses, contention), progs.PulseOverlapProperty
	default:
		panic("lab: build only materializes template behaviors")
	}
	return sc
}

// buildChan materializes one channel-class scenario from the templates
// in internal/progs. The scale axes are reused with channel meanings:
// Pulses is the value count (values sent, or select alternatives for
// the deadlock class) and Contention is the receive count for the
// lost-message class.
func buildChan(behavior Behavior, pulses, contention int, seed int64) Scenario {
	sc := Scenario{
		Name:       fmt.Sprintf("%s-p%d-c%d", behavior, pulses, contention),
		Behavior:   behavior,
		Pulses:     pulses,
		Contention: contention,
		Property:   progs.ChanProperty,
		Seed:       seed,
		Runs:       3,
	}
	switch behavior {
	case ChanClean:
		sc.Threads, sc.Source = 2, progs.ChanPipeline(pulses)
	case ChanClosed:
		sc.Threads, sc.Source = 3, progs.ChanSendOnClosed(pulses)
	case ChanLost:
		sc.Threads, sc.Source = 2, progs.ChanLostMessage(pulses, contention)
	case ChanDeadlock:
		sc.Threads, sc.Source = 2, progs.ChanPartialDeadlock(pulses)
	default:
		panic("lab: buildChan only materializes channel template behaviors")
	}
	return sc
}

// buildDeep materializes one deep-thread scenario with declared
// ground truth. The truth is analytic, not enumerated:
//
//   - deep-violating (PulseViolating, contention 0): every worker
//     pulses only its own variable, so no property variable has a
//     cross-thread conflict — the v0/v1 overlap cut is consistent in
//     every reconstructed computation (truth: violating) — and no two
//     threads ever touch a common variable, so no data race and no
//     channel finding exists.
//   - deep-clean (PulseClean, contention 0): every access sits inside
//     the one global critical section, so the mutex's total order
//     serializes all pulses (no consistent overlap, no race, no
//     finding).
//
// Runs shrink as threads grow so the grid's wall budget holds.
func buildDeep(behavior Behavior, threads int, seed int64) Scenario {
	sc := Scenario{
		Name:     fmt.Sprintf("%s-t%d", behavior, threads),
		Behavior: behavior,
		Threads:  threads,
		Pulses:   1,
		Seed:     seed,
		Runs:     3,
	}
	if threads >= 1024 {
		sc.Runs = 2
	}
	switch behavior {
	case DeepViolating:
		sc.Source, sc.Property = progs.PulseViolating(threads, 1, 0), progs.PulseOverlapProperty
		sc.Declared = &Truth{Declared: true, Violating: true}
	case DeepClean:
		sc.Source, sc.Property = progs.PulseClean(threads, 1, 0), progs.PulseOverlapProperty
		sc.Declared = &Truth{Declared: true}
	default:
		panic("lab: buildDeep only materializes deep template behaviors")
	}
	return sc
}

// chaosOn derives a chaos scenario: the base workload with its
// observer sessions routed through a FaultWriter. SpareHello keeps the
// session openable; everything else is fair game.
func chaosOn(base Scenario, plan wire.FaultPlan, tag string) Scenario {
	sc := base
	sc.Behavior = Chaos
	if isChannel(base.Behavior) {
		sc.Behavior = ChanChaos
	}
	sc.Base = base.Name
	sc.Name = fmt.Sprintf("chaos-%s-%s", tag, base.Name)
	plan.SpareHello = true
	if plan.Seed == 0 {
		plan.Seed = base.Seed + 7777
	}
	sc.Fault = &plan
	return sc
}

// Grid is a named set of scenarios plus the seed they derive from.
type Grid struct {
	Name      string
	Seed      int64
	Scenarios []Scenario
}

// scales lists the (threads, pulses, contention) points of the default
// grid. Sizes are chosen so the exhaustive scheduler fully enumerates
// every scenario's interleavings (the largest, 2 threads × 7 events,
// is C(14,7) = 3432 interleavings; 3 threads stay at one pulse).
var scales = []struct{ threads, pulses, contention int }{
	{2, 1, 0}, {2, 1, 1}, {2, 2, 0}, {2, 2, 1}, {2, 3, 0}, {2, 3, 1},
	{3, 1, 0}, {3, 1, 1},
}

// DefaultGrid is the release grid: every template behavior at every
// scale, six chaos derivations, the channel classes at a few scales
// with two channel-chaos derivations, and the deep classes at every
// deep scale — 46 scenarios, all but the declared-truth deep ones
// with complete exhaustive ground truth.
func DefaultGrid(seed int64) Grid {
	g := Grid{Name: "default", Seed: seed}
	var violating, racy []Scenario
	for _, s := range scales {
		v := build(Violating, s.threads, s.pulses, s.contention, seed)
		c := build(Clean, s.threads, s.pulses, s.contention, seed)
		g.Scenarios = append(g.Scenarios, v, c)
		violating = append(violating, v)
		// Racy pulses are 4 events each; skip the points whose interleaving
		// count exceeds the exhaustion budget (3 threads × 5 events is
		// 15!/(5!)^3 ≈ 757k) so every scenario keeps complete truth.
		if s.pulses <= 2 && !(s.threads == 3 && s.contention == 1) {
			r := build(Racy, s.threads, s.pulses, s.contention, seed)
			g.Scenarios = append(g.Scenarios, r)
			racy = append(racy, r)
		}
	}
	drop := wire.FaultPlan{Drop: 0.15, Seed: seed + 1}
	mixed := wire.FaultPlan{Drop: 0.1, Corrupt: 0.1, Duplicate: 0.1, Delay: 0.15, MaxDelay: 3, Seed: seed + 2}
	g.Scenarios = append(g.Scenarios,
		chaosOn(violating[2], drop, "drop"), // violating-t2-p2-c0
		chaosOn(violating[3], mixed, "mix"), // violating-t2-p2-c1
		chaosOn(violating[4], drop, "drop"), // violating-t2-p3-c0
		chaosOn(violating[6], mixed, "mix"), // violating-t3-p1-c0
		chaosOn(racy[2], drop, "drop"),      // racy-t2-p2-c0
		chaosOn(racy[1], mixed, "mix"),      // racy-t2-p1-c1
	)
	// Channel classes: every template at a few scales, plus two chaos
	// derivations over the finding-bearing bases.
	closed2 := buildChan(ChanClosed, 2, 0, seed)
	lost31 := buildChan(ChanLost, 3, 1, seed)
	g.Scenarios = append(g.Scenarios,
		buildChan(ChanClean, 1, 0, seed),
		buildChan(ChanClean, 2, 0, seed),
		buildChan(ChanClean, 3, 0, seed),
		buildChan(ChanClosed, 1, 0, seed),
		closed2,
		buildChan(ChanLost, 2, 1, seed),
		lost31,
		buildChan(ChanLost, 3, 2, seed),
		buildChan(ChanDeadlock, 1, 0, seed),
		buildChan(ChanDeadlock, 2, 0, seed),
		buildChan(ChanDeadlock, 3, 0, seed),
		chaosOn(closed2, drop, "drop"),
		chaosOn(lost31, mixed, "mix"),
	)
	// Deep classes: both templates at every deep scale, declared truth.
	for _, threads := range progs.DeepScales {
		g.Scenarios = append(g.Scenarios,
			buildDeep(DeepViolating, threads, seed),
			buildDeep(DeepClean, threads, seed),
		)
	}
	return g
}

// DeepGrid is the deep-thread grid alone: both deep templates at every
// deep scale, for focused deep-thread scaling runs.
func DeepGrid(seed int64) Grid {
	g := Grid{Name: "deep", Seed: seed}
	for _, threads := range progs.DeepScales {
		g.Scenarios = append(g.Scenarios,
			buildDeep(DeepViolating, threads, seed),
			buildDeep(DeepClean, threads, seed),
		)
	}
	return g
}

// ShortGrid is the CI grid: one scenario per behavior (including each
// channel class and the deep classes at their smallest scale) at one
// or two scales — 15 scenarios, a few seconds of work.
func ShortGrid(seed int64) Grid {
	g := Grid{Name: "short", Seed: seed}
	v1 := build(Violating, 2, 1, 0, seed)
	v2 := build(Violating, 2, 2, 1, seed)
	r1 := build(Racy, 2, 1, 0, seed)
	r2 := build(Racy, 2, 2, 0, seed)
	c1 := build(Clean, 2, 1, 0, seed)
	c2 := build(Clean, 3, 1, 1, seed)
	closed := buildChan(ChanClosed, 1, 0, seed)
	g.Scenarios = append(g.Scenarios,
		buildDeep(DeepViolating, 64, seed),
		buildDeep(DeepClean, 64, seed),
	)
	g.Scenarios = append(g.Scenarios, v1, v2, r1, r2, c1, c2,
		chaosOn(v2, wire.FaultPlan{Drop: 0.15, Seed: seed + 1}, "drop"),
		chaosOn(r2, wire.FaultPlan{Drop: 0.1, Corrupt: 0.1, Delay: 0.15, MaxDelay: 3, Seed: seed + 2}, "mix"),
		buildChan(ChanClean, 2, 0, seed),
		closed,
		buildChan(ChanLost, 2, 1, seed),
		buildChan(ChanDeadlock, 2, 0, seed),
		chaosOn(closed, wire.FaultPlan{Drop: 0.15, Seed: seed + 3}, "drop"),
	)
	return g
}

// GoldenGrid is the tiny fixed grid behind the golden artifact test:
// one scenario per shared-variable behavior plus the four channel
// template classes, smallest scale, fixed seed. Changing it
// invalidates testdata/lab.
func GoldenGrid() Grid {
	g := Grid{Name: "golden", Seed: 42}
	v := build(Violating, 2, 1, 0, 42)
	g.Scenarios = append(g.Scenarios,
		v,
		build(Clean, 2, 1, 0, 42),
		build(Racy, 2, 1, 0, 42),
		chaosOn(v, wire.FaultPlan{Drop: 0.2, Seed: 43}, "drop"),
		buildChan(ChanClean, 1, 0, 42),
		buildChan(ChanClosed, 1, 0, 42),
		buildChan(ChanLost, 2, 1, 42),
		buildChan(ChanDeadlock, 2, 0, 42),
	)
	return g
}

// GridByName resolves a -grid flag value.
func GridByName(name string, seed int64) (Grid, error) {
	switch name {
	case "", "default":
		return DefaultGrid(seed), nil
	case "short":
		return ShortGrid(seed), nil
	case "golden":
		return GoldenGrid(), nil
	case "deep":
		return DeepGrid(seed), nil
	default:
		return Grid{}, fmt.Errorf("lab: unknown grid %q (default, short, golden, deep)", name)
	}
}

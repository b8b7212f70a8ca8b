// Package driver wires the full gompax pipeline together, mirroring
// the JMPaX architecture of Fig. 4: parse the specification, extract
// the relevant variables, instrument the program, execute it under a
// scheduler, reconstruct the computation from the emitted messages,
// and run the predictive analysis — optionally confirming predicted
// counterexamples by synthesizing and re-executing a concrete
// schedule.
package driver

import (
	"errors"
	"fmt"
	"strings"

	"gompax/internal/event"
	"gompax/internal/instrument"
	"gompax/internal/lattice"
	"gompax/internal/liveness"
	"gompax/internal/logic"
	"gompax/internal/monitor"
	"gompax/internal/msg"
	"gompax/internal/mtl"
	"gompax/internal/predict"
	"gompax/internal/replay"
	"gompax/internal/sched"
	"gompax/internal/telemetry"
)

// Config selects what to run and how.
type Config struct {
	// Source is the MTL program text.
	Source string
	// Property is the safety formula text.
	Property string
	// Seed seeds the random scheduler (used when Scheduler is nil).
	Seed int64
	// Scheduler overrides the default seeded-random scheduler.
	Scheduler sched.Scheduler
	// MaxEvents bounds the instrumented execution (0 = 1e6).
	MaxEvents uint64
	// MaxCuts bounds the predictive analysis (0 = unlimited).
	MaxCuts int
	// Counterexamples requests full counterexample runs on violations.
	Counterexamples bool
	// Enumerate additionally materializes the lattice and checks every
	// run (exact run statistics; exponential — small computations only).
	Enumerate bool
	// EnumerateMaxNodes bounds the materialized lattice (0 = 1<<20).
	EnumerateMaxNodes int
	// ConfirmReplay synthesizes a concrete schedule for the first
	// predicted counterexample and re-executes it.
	ConfirmReplay bool
	// LivenessProperty, when non-empty, is a future-time LTL formula
	// checked against the lattice's lassos (§4's uv-omega prediction).
	// Its variables must be a subset of the safety property's relevant
	// variables (they define the observed state).
	LivenessProperty string
	// MaxLassos / MaxLassoPaths bound the lasso search (0 = defaults).
	MaxLassos     int
	MaxLassoPaths int
}

// Replay describes a confirmed counterexample re-execution.
type Replay struct {
	// Schedule is the synthesized thread schedule.
	Schedule []int
	// ViolationIndex is where the single-trace checker flags the
	// replayed run (-1 would mean the prediction failed to confirm —
	// that would be a bug, and Check returns an error instead).
	ViolationIndex int
}

// Report is the complete outcome of a predictive checking session.
type Report struct {
	Program *mtl.Program
	Formula logic.Formula
	// Initial is the initial state over the relevant variables.
	Initial logic.State
	// Messages are the observer messages of the observed execution.
	Messages []event.Message
	// ObservedStates is the observed run's state sequence (initial
	// state plus one state per relevant event, in emission order).
	ObservedStates []logic.State
	// ObservedViolation is the single-trace (JPAX-style) verdict on the
	// observed run: index of first violating state or -1.
	ObservedViolation int
	// Result is the predictive analysis outcome.
	Result predict.Result
	// Runs holds exhaustive per-run statistics when Config.Enumerate.
	Runs *predict.RunReport
	// Replay holds the confirmation replay when requested and a
	// violation was predicted.
	Replay *Replay
	// Schedule is the observed execution's schedule (for reproduction).
	Schedule []int
	// LivenessViolations holds predicted liveness violations (lassos
	// u·v-omega falsifying Config.LivenessProperty).
	LivenessViolations []liveness.Violation
	// Messaging holds the message-passing analyses' report when the
	// program uses channels; nil for channel-free programs.
	Messaging *msg.Report
	// Deadlock is non-nil when the observed execution ended with
	// blocked threads instead of completing. The analysis still runs
	// over the events emitted up to the deadlock (this is how a
	// partial deadlock reaches the message-passing analyses).
	Deadlock *sched.DeadlockError
}

// Check runs the pipeline.
func Check(cfg Config) (*Report, error) {
	root := telemetry.StartSpan("driver.check")
	defer root.End()
	prog, err := mtl.Parse(cfg.Source)
	if err != nil {
		return nil, err
	}
	formula, err := logic.ParseFormula(cfg.Property)
	if err != nil {
		return nil, err
	}
	code, err := mtl.Compile(prog)
	if err != nil {
		return nil, err
	}
	mprog, err := monitor.Compile(formula)
	if err != nil {
		return nil, err
	}
	initial, err := instrument.InitialState(prog, formula)
	if err != nil {
		return nil, err
	}
	policy := instrument.PolicyFor(formula)

	s := cfg.Scheduler
	if s == nil {
		s = sched.NewRandom(cfg.Seed)
	}
	maxEvents := cfg.MaxEvents
	if maxEvents == 0 {
		maxEvents = 1_000_000
	}
	runSpan := root.Child("driver.instrument")
	out, err := instrument.Run(code, policy, s, maxEvents)
	runSpan.End()
	var deadlock *sched.DeadlockError
	if err != nil {
		// A deadlocked execution is an analyzable outcome, not a
		// pipeline failure: the events emitted up to the deadlock are a
		// complete record of what every thread did, which is exactly
		// what the partial-deadlock analysis needs.
		if !errors.As(err, &deadlock) {
			return nil, err
		}
	}

	rep := &Report{
		Program:  prog,
		Formula:  formula,
		Initial:  initial,
		Messages: out.Messages,
		Schedule: out.Result.Schedule,
		Deadlock: deadlock,
	}

	if hasChannelEvents(out.Messages) {
		// The driver observed the execution directly — no wire, no
		// loss — so the whole-stream analyses always run.
		rep.Messaging = msg.Analyze(out.Messages, msg.Options{Complete: true, Predictive: true})
	}

	// Observed-run states and the JPAX-style baseline verdict.
	rep.ObservedStates = StatesOf(initial, out.Messages)
	rep.ObservedViolation, err = monitor.CheckTrace(mprog, rep.ObservedStates)
	if err != nil {
		return nil, err
	}

	comp, err := lattice.NewComputation(initial, len(code.Threads), out.Messages)
	if err != nil {
		return nil, err
	}
	predictSpan := root.Child("driver.predict")
	rep.Result, err = predict.Analyze(mprog, comp, predict.Options{
		MaxCuts:         cfg.MaxCuts,
		Counterexamples: cfg.Counterexamples || cfg.ConfirmReplay,
	})
	predictSpan.End()
	if err != nil {
		return nil, err
	}

	if cfg.Enumerate {
		maxNodes := cfg.EnumerateMaxNodes
		if maxNodes == 0 {
			maxNodes = 1 << 20
		}
		runs, err := predict.EnumerateRuns(mprog, comp, maxNodes, 3)
		if err != nil {
			return nil, err
		}
		rep.Runs = &runs
	}

	if cfg.LivenessProperty != "" {
		lf, err := logic.ParseFormula(cfg.LivenessProperty)
		if err != nil {
			return nil, err
		}
		for _, v := range logic.Vars(lf) {
			if _, ok := initial.Lookup(v); !ok {
				return nil, fmt.Errorf("driver: liveness variable %q is not among the safety property's relevant variables", v)
			}
		}
		rep.LivenessViolations, err = liveness.Check(comp, lf, cfg.MaxLassos, cfg.MaxLassoPaths)
		if err != nil {
			return nil, err
		}
	}

	if cfg.ConfirmReplay && len(rep.Result.Violations) > 0 && rep.Result.Violations[0].Run != nil {
		msgs, schedule, err := replay.Confirm(code, policy, *rep.Result.Violations[0].Run)
		if err != nil {
			return nil, err
		}
		states := StatesOf(initial, msgs)
		idx, err := monitor.CheckTrace(mprog, states)
		if err != nil {
			return nil, err
		}
		if idx < 0 {
			return nil, fmt.Errorf("driver: replayed counterexample did not violate the property (prediction unsound?)")
		}
		rep.Replay = &Replay{Schedule: schedule, ViolationIndex: idx}
	}
	return rep, nil
}

func hasChannelEvents(msgs []event.Message) bool {
	for _, m := range msgs {
		if m.Event.Kind.IsChannel() {
			return true
		}
	}
	return false
}

// StatesOf folds relevant messages over an initial state, producing
// the run's global state sequence.
func StatesOf(initial logic.State, msgs []event.Message) []logic.State {
	states := make([]logic.State, 0, len(msgs)+1)
	states = append(states, initial)
	cur := initial
	for _, m := range msgs {
		if !m.Event.Kind.IsChannel() {
			// Channel events carry no state update (their Var is a
			// channel name, not a shared variable).
			cur = cur.With(m.Event.Var, m.Event.Value)
		}
		states = append(states, cur)
	}
	return states
}

// Summary renders a human-readable report.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "property:  %s\n", r.Formula)
	fmt.Fprintf(&b, "relevant:  %s\n", strings.Join(logic.Vars(r.Formula), ", "))
	fmt.Fprintf(&b, "observed:  %d relevant events", len(r.Messages))
	if r.ObservedViolation >= 0 {
		fmt.Fprintf(&b, "; run itself VIOLATES at state %d", r.ObservedViolation)
	} else {
		b.WriteString("; run itself satisfies the property")
	}
	b.WriteByte('\n')
	st := r.Result.Stats
	fmt.Fprintf(&b, "lattice:   %d cuts over %d levels (max width %d, %d monitored pairs)\n",
		st.Cuts, st.Levels, st.MaxWidth, st.Pairs)
	if len(r.Result.Violations) == 0 {
		b.WriteString("verdict:   no violation in any consistent run\n")
	} else {
		fmt.Fprintf(&b, "verdict:   PREDICTED %d violation(s)\n", len(r.Result.Violations))
		order := logic.Vars(r.Formula)
		for i, v := range r.Result.Violations {
			fmt.Fprintf(&b, "  [%d] level %d, state %s\n", i+1, v.Level, v.State.Tuple(order))
			if v.Run != nil {
				b.WriteString("      counterexample run: ")
				for j, s := range v.Run.States {
					if j > 0 {
						b.WriteString(" -> ")
					}
					b.WriteString(s.Tuple(order))
				}
				b.WriteByte('\n')
			}
		}
	}
	if r.Runs != nil {
		fmt.Fprintf(&b, "runs:      %d consistent runs, %d violating (lattice of %d nodes, width %d)\n",
			r.Runs.Total, r.Runs.Violating, r.Runs.Nodes, r.Runs.Width)
	}
	if r.Replay != nil {
		fmt.Fprintf(&b, "replay:    counterexample confirmed on a real execution (violation at state %d, schedule %v)\n",
			r.Replay.ViolationIndex, r.Replay.Schedule)
	}
	if len(r.LivenessViolations) > 0 {
		fmt.Fprintf(&b, "liveness:  PREDICTED %d potential liveness violation(s):\n", len(r.LivenessViolations))
		for _, v := range r.LivenessViolations {
			fmt.Fprintf(&b, "  %s\n", v)
		}
	}
	if r.Deadlock != nil {
		fmt.Fprintf(&b, "deadlock:  execution ended with blocked threads: %s\n",
			strings.Join(r.Deadlock.Blocked, "; "))
	}
	if r.Messaging != nil {
		fmt.Fprintf(&b, "messaging: %s\n", r.Messaging.Summary())
		if r.Messaging.Violating() {
			b.WriteString(msg.FormatFindings(r.Messaging.Findings))
		}
	}
	return b.String()
}

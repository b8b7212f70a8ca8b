package lab

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"gompax/internal/driver"
	"gompax/internal/event"
	"gompax/internal/instrument"
	"gompax/internal/interp"
	"gompax/internal/logic"
	"gompax/internal/monitor"
	"gompax/internal/mvc"
	"gompax/internal/observer"
	"gompax/internal/predict"
	"gompax/internal/race"
	"gompax/internal/sched"
	"gompax/internal/telemetry/tracing"
	"gompax/internal/wire"
)

// RunOutcome is one observed execution of a scenario pushed through
// the full pipeline: instrumented run, wire session (faulty for chaos
// scenarios), online predictive analysis, race prediction, and the
// single-trace monitor baseline.
type RunOutcome struct {
	// Seed is the scheduler seed of the observed execution.
	Seed int64 `json:"seed"`
	// Messages is the number of relevant messages the execution emitted
	// (before any wire loss).
	Messages int `json:"messages"`
	// ObservedViolation is the JPAX-style single-trace verdict on the
	// observed run itself — the paper's baseline detector.
	ObservedViolation bool `json:"observed_violation"`
	// PredictedViolation is the predictive analyzer's verdict over the
	// computation lattice reconstructed from the (possibly lossy)
	// session.
	PredictedViolation bool `json:"predicted_violation"`
	// RaceKeys are the predicted race pair keys.
	RaceKeys []string `json:"race_keys"`
	// MsgKeys are the message-passing findings ("kind|channel" keys)
	// from this run's session.
	MsgKeys []string `json:"msg_keys"`
	// Deadlocked is true when the observed execution itself ended with
	// parked threads (its emitted prefix is analyzed like any other).
	Deadlocked bool `json:"deadlocked,omitempty"`
	// Cuts and Levels summarize the explored lattice.
	Cuts   int `json:"cuts"`
	Levels int `json:"levels"`
	// Degraded is true when the session lost or mangled frames.
	Degraded bool `json:"degraded"`
	// Error carries a session error the analysis survived (partial
	// results), empty otherwise.
	Error string `json:"error,omitempty"`
}

// Outcome is a scenario's complete lab record: ground truth plus every
// observed run's predictions and the cost of producing them.
type Outcome struct {
	Scenario Scenario     `json:"scenario"`
	Truth    Truth        `json:"truth"`
	Runs     []RunOutcome `json:"runs"`
	// PredictedViolation / PredictedRaceKeys / PredictedMsgKeys are the
	// per-scenario verdicts: the union over the observed runs.
	PredictedViolation bool     `json:"predicted_violation"`
	PredictedRaceKeys  []string `json:"predicted_race_keys"`
	PredictedMsgKeys   []string `json:"predicted_msg_keys"`
	// ObservedViolation is true when any observed run violated by
	// itself — what ordinary testing would have seen.
	ObservedViolation bool `json:"observed_violation"`
	// WallMS / Allocs measure the analysis pipeline (all runs,
	// excluding ground truth); TruthMS measures the exhaustive
	// exploration.
	WallMS  float64 `json:"wall_ms"`
	TruthMS float64 `json:"truth_ms"`
	Allocs  uint64  `json:"allocs"`
	// TraceFile, set only when the runner exports traces, is the
	// artifact-relative path of this scenario's Chrome trace-event file
	// (omitted from JSON otherwise, keeping golden results stable).
	TraceFile string `json:"trace_file,omitempty"`
}

// Runner executes scenarios. The zero value is ready to use.
type Runner struct {
	// Truth bounds the ground-truth exploration.
	Truth TruthOptions
	// TraceDir, when set, exports one Chrome trace-event JSON file per
	// scenario into that directory — the span tree of every observed
	// run's online analysis, openable in Perfetto. Empty keeps tracing
	// off (and Outcome.TraceFile unset).
	TraceDir string
	// truthCache shares ground truth between scenarios over the same
	// program and property (chaos derivations of a base scenario).
	truthCache map[string]Truth
}

// runSeed derives the i-th observed execution's scheduler seed.
func runSeed(sc Scenario, i int) int64 { return sc.Seed + int64(i)*101 }

// raceReportKeys projects race reports onto canonical pair keys.
func raceReportKeys(reports []race.Report, into map[string]bool) {
	for _, r := range reports {
		into[PairKey(r.Var, r.A.Thread, r.A.Write, r.B.Thread, r.B.Write)] = true
	}
}

// accessMessage ships one recorded data access over the wire: the
// access's sync-only clock rides in the message clock; Seq and the
// access kind survive in the event fields.
func accessMessage(a race.Access, index uint64) event.Message {
	kind := event.Read
	if a.Write {
		kind = event.Write
	}
	return event.Message{
		Event: event.Event{
			Seq:      a.Seq,
			Thread:   a.Thread,
			Index:    index,
			Kind:     kind,
			Var:      a.Var,
			Relevant: true,
		},
		Clock: a.Clock,
	}
}

func messageAccess(m event.Message) race.Access {
	return race.Access{
		Thread: m.Event.Thread,
		Var:    m.Event.Var,
		Write:  m.Event.Kind == event.Write,
		Clock:  m.Clock,
		Seq:    m.Event.Seq,
	}
}

// session pushes messages through one wire session — through a
// FaultWriter when plan is non-nil — and returns the raw received
// bytes ready for a receiver.
func session(msgs []event.Message, threads int, initial logic.State, plan *wire.FaultPlan, faultSeed int64) (*bytes.Buffer, error) {
	var buf bytes.Buffer
	var snd *wire.Sender
	var fw *wire.FaultWriter
	if plan != nil {
		p := *plan
		p.Seed += faultSeed
		p.SpareHello = true
		fw = wire.NewFaultWriter(&buf, p)
		snd = wire.NewSender(fw)
	} else {
		snd = wire.NewSender(&buf)
	}
	if err := snd.SendHello(wire.Hello{Threads: threads, Initial: initial}); err != nil {
		return nil, err
	}
	for _, m := range msgs {
		if err := snd.SendMessage(m); err != nil {
			return nil, err
		}
	}
	for i := 0; i < threads; i++ {
		if err := snd.SendThreadDone(i); err != nil {
			return nil, err
		}
	}
	if err := snd.SendBye(); err != nil {
		return nil, err
	}
	if err := snd.Flush(); err != nil {
		return nil, err
	}
	if fw != nil {
		if err := fw.Close(); err != nil {
			return nil, err
		}
	}
	return &buf, nil
}

// receiverFor pairs the session bytes with the right receiver: strict
// for clean wires, resyncing for chaos.
func receiverFor(buf *bytes.Buffer, lossy bool) *wire.Receiver {
	if lossy {
		return wire.NewResyncReceiver(bytes.NewReader(buf.Bytes()))
	}
	return wire.NewReceiver(bytes.NewReader(buf.Bytes()))
}

// runOnce performs one observed execution and its full analysis.
// span, when non-nil, parents the run's analysis spans.
func (r *Runner) runOnce(sc Scenario, c *compiled, seed int64, span *tracing.Span) (RunOutcome, error) {
	out := RunOutcome{Seed: seed}
	lossy := sc.Fault != nil

	// 1. Instrumented execution: property instrumentation and the
	// online race detector share the hook stream.
	col := &mvc.Collector{}
	in := instrument.New(len(c.code.Threads), c.policy, col)
	det := race.NewDetector(len(c.code.Threads))
	m := interp.NewMachine(c.code, tee{in, det})
	if _, err := sched.Run(m, sched.NewRandom(seed), 1_000_000); err != nil {
		// A deadlocked execution is a legitimate observation — exactly
		// what the partial-deadlock analysis exists for. Its emitted
		// prefix flows through the pipeline like any completed run
		// (mirroring the driver, which streams the prefix and closes the
		// session normally).
		var dl *sched.DeadlockError
		if !errors.As(err, &dl) {
			return out, fmt.Errorf("lab: %s seed %d: run: %w", sc.Name, seed, err)
		}
		out.Deadlocked = true
	}
	out.Messages = len(col.Messages)

	// 2. Single-trace baseline (what plain JPAX-style monitoring of
	// this one run would have reported).
	states := driver.StatesOf(c.initial, col.Messages)
	idx, err := monitor.CheckTrace(c.mprog, states)
	if err != nil {
		return out, err
	}
	out.ObservedViolation = idx >= 0

	// 3. Property session over the wire, then online predictive
	// analysis of the reconstructed computation.
	threads := len(c.code.Threads)
	buf, err := session(col.Messages, threads, c.initial, sc.Fault, seed)
	if err != nil {
		return out, err
	}
	res, aerr := observer.Analyze(receiverFor(buf, lossy), c.mprog, predict.Options{
		Lossy: lossy,
		Span:  span,
	})
	if aerr != nil {
		// Partial results are still scored; the error is recorded.
		out.Error = aerr.Error()
	}
	out.PredictedViolation = res.Violated()
	out.MsgKeys = res.Messaging.Keys()
	out.Cuts = res.Stats.Cuts
	out.Levels = res.Stats.Levels
	out.Degraded = res.Degraded != nil

	// 4. Race prediction. Chaos scenarios ship the recorded accesses
	// through a second faulty session and predict on the survivors;
	// clean wires predict on the full access set.
	keys := map[string]bool{}
	if lossy {
		accesses := det.Accesses()
		msgs := make([]event.Message, len(accesses))
		perThread := map[int]uint64{}
		for i, a := range accesses {
			perThread[a.Thread]++
			msgs[i] = accessMessage(a, perThread[a.Thread])
		}
		rbuf, err := session(msgs, threads, logic.StateFromMap(nil), sc.Fault, seed+1)
		if err != nil {
			return out, err
		}
		sess, err := observer.Drain(receiverFor(rbuf, true))
		if err != nil {
			return out, fmt.Errorf("lab: %s seed %d: drain race session: %w", sc.Name, seed, err)
		}
		if sess.Stats.Lossy() {
			out.Degraded = true
		}
		survived := make([]race.Access, 0, len(sess.Messages))
		for _, m := range sess.Messages {
			survived = append(survived, messageAccess(m))
		}
		raceReportKeys(race.PredictRaces(survived), keys)
	} else {
		raceReportKeys(race.PredictRaces(det.Accesses()), keys)
	}
	out.RaceKeys = sortedKeys(keys)
	return out, nil
}

// RunScenario computes a scenario's ground truth and runs its observed
// executions through the pipeline.
func (r *Runner) RunScenario(sc Scenario) (Outcome, error) {
	c, err := compileScenario(sc)
	if err != nil {
		return Outcome{}, err
	}
	out := Outcome{Scenario: sc}

	truthKey := sc.Source + "\x00" + sc.Property
	if r.truthCache == nil {
		r.truthCache = map[string]Truth{}
	}
	if sc.Declared != nil {
		// Deep scenarios carry analytic ground truth; enumerating
		// hundreds of threads is impossible, so the declared labels are
		// the truth (and never count as Complete).
		out.Truth = *sc.Declared
		out.Truth.Declared = true
		out.Truth.Complete = false
	} else if cached, ok := r.truthCache[truthKey]; ok {
		out.Truth = cached
	} else {
		start := time.Now()
		truth, err := computeTruth(c, r.Truth)
		if err != nil {
			return out, err
		}
		out.TruthMS = float64(time.Since(start).Microseconds()) / 1000
		out.Truth = truth
		r.truthCache[truthKey] = truth
	}

	runs := sc.Runs
	if runs <= 0 {
		runs = 1
	}
	// Per-scenario tracer: seeded by the scenario so the span ids are
	// reproducible, one exported file per scenario.
	var tr *tracing.Tracer
	var root *tracing.Span
	if r.TraceDir != "" {
		tr = tracing.New(tracing.Options{Process: "gompaxlab", Seed: uint64(sc.Seed) + 1})
		root = tr.StartTrace("lab.scenario")
		root.SetAttr("scenario", sc.Name)
		root.SetAttr("behavior", string(sc.Behavior))
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	keys := map[string]bool{}
	mkeys := map[string]bool{}
	for i := 0; i < runs; i++ {
		rsp := root.Child("lab.run")
		rsp.SetAttr("seed", fmt.Sprint(runSeed(sc, i)))
		ro, err := r.runOnce(sc, c, runSeed(sc, i), rsp)
		rsp.End()
		if err != nil {
			return out, err
		}
		out.Runs = append(out.Runs, ro)
		out.PredictedViolation = out.PredictedViolation || ro.PredictedViolation
		out.ObservedViolation = out.ObservedViolation || ro.ObservedViolation
		for _, k := range ro.RaceKeys {
			keys[k] = true
		}
		for _, k := range ro.MsgKeys {
			mkeys[k] = true
		}
	}
	out.WallMS = float64(time.Since(start).Microseconds()) / 1000
	runtime.ReadMemStats(&ms1)
	out.Allocs = ms1.Mallocs - ms0.Mallocs
	out.PredictedRaceKeys = sortedKeys(keys)
	out.PredictedMsgKeys = sortedKeys(mkeys)
	if tr != nil {
		root.End()
		file, err := writeScenarioTrace(r.TraceDir, sc.Name, tr.Spans(root.TraceID()))
		if err != nil {
			return out, err
		}
		out.TraceFile = file
	}
	return out, nil
}

// writeScenarioTrace exports one scenario's spans as Chrome
// trace-event JSON into dir and returns the artifact-relative path
// (the report links it as <base(dir)>/<file>).
func writeScenarioTrace(dir, scenario string, spans []tracing.SpanData) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	name := strings.NewReplacer("/", "-", " ", "_").Replace(scenario) + ".json"
	buf, err := tracing.ChromeJSON(spans)
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(filepath.Join(dir, name), buf, 0o644); err != nil {
		return "", err
	}
	return filepath.Join(filepath.Base(dir), name), nil
}

// RunGrid runs every scenario of a grid. progress, when non-nil, is
// called after each completed scenario.
func (r *Runner) RunGrid(g Grid, progress func(Outcome)) ([]Outcome, error) {
	outcomes := make([]Outcome, 0, len(g.Scenarios))
	for _, sc := range g.Scenarios {
		out, err := r.RunScenario(sc)
		if err != nil {
			return outcomes, err
		}
		outcomes = append(outcomes, out)
		if progress != nil {
			progress(out)
		}
	}
	return outcomes, nil
}

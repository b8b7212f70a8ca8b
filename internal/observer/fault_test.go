package observer_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"gompax/internal/clock"
	"gompax/internal/event"
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

// stalledSession is a session whose last event can never be applied:
// thread 0 writes x = 9 with a clock naming a third thread-1 event that
// is never sent. Under x < 5 that unapplied write is the only
// violation. The Hello also binds the landing property's variables, so
// the session is analyzable under FuzzObserverSession's property.
func stalledSession() []byte {
	write := func(thread int, value int64, clk ...uint64) event.Message {
		return event.Message{
			Event: event.Event{Thread: thread, Index: 1, Kind: event.Write, Var: "x", Value: value, Relevant: true},
			Clock: clock.Of(clk...),
		}
	}
	var buf bytes.Buffer
	s := wire.NewSender(&buf)
	initial := logic.StateFromMap(map[string]int64{"x": 0, "landing": 0, "approved": 0, "radio": 0})
	s.SendHello(wire.Hello{Threads: 2, Initial: initial})
	s.SendMessage(write(1, 1, 0, 1))
	s.SendMessage(write(0, 9, 1, 3))
	s.SendThreadDone(0)
	s.SendThreadDone(1)
	s.SendBye()
	return buf.Bytes()
}

// TestStalledSessionIsNotConfident: a session with a delivered event
// the analyzer can never apply fails a strict analysis and degrades a
// lossy one as stalled; neither returns a confident clean verdict.
func TestStalledSessionIsNotConfident(t *testing.T) {
	raw := stalledSession()
	prog := monitor.MustCompile(logic.MustParseFormula("x < 5"))
	_, err := observer.Analyze(wire.NewReceiver(bytes.NewReader(raw)), prog, predict.Options{})
	if err == nil || !strings.Contains(err.Error(), "analysis stalled with 1 of 2 events applied") {
		t.Errorf("strict analysis: err = %v, want the stall", err)
	}
	res, err := observer.Analyze(wire.NewResyncReceiver(bytes.NewReader(raw)), prog, predict.Options{Lossy: true})
	if err != nil {
		t.Fatalf("lossy analysis: %v", err)
	}
	if got := res.Degraded.String(); got != "degraded: stalled" {
		t.Errorf("lossy analysis: %s, want degraded: stalled", got)
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

// wideDeltaStream is a hostile session of a few hundred bytes: a Hello
// announcing two threads, 16 message frames of thread 0 whose v3 delta
// clocks each raise one component near index 1,000,000, and a Bye.
// Every frame carries a valid checksum, so only the clock bound stops a
// receiver from materializing million-component clocks.
func wideDeltaStream(t testing.TB) []byte {
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	frame := func(buf *bytes.Buffer, kind wire.FrameKind, seq uint64, payload []byte) {
		hdr := []byte{0xA7, byte(kind)} // frame magic, kind
		hdr = binary.AppendUvarint(hdr, seq)
		hdr = binary.AppendUvarint(hdr, uint64(len(payload)))
		crc := crc32.Update(crc32.Checksum(hdr[1:], castagnoli), castagnoli, payload)
		buf.Write(binary.LittleEndian.AppendUint32(hdr, crc))
		buf.Write(payload)
	}
	var buf bytes.Buffer
	s := wire.NewSender(&buf)
	if err := s.SendHello(wire.Hello{Threads: 2, Initial: logic.StateFromMap(map[string]int64{"x": 0})}); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	const frames = 16
	for k := 0; k < frames; k++ {
		m := event.Message{Event: event.Event{Seq: uint64(k + 1), Thread: 0, Index: uint64(k + 1), Kind: event.Write, Var: "x", Value: 1, Relevant: true}}
		// A zero clock encodes as mode full (0) and count 0; replace
		// those two bytes with a delta (mode 1) chained to own
		// component 0 that raises one far component by 1.
		p := wire.AppendMessage(nil, m)
		p = append(p[:len(p)-2], 1, 0, 1)
		p = binary.AppendUvarint(p, uint64(999_990+k))
		frame(&buf, wire.FrameMessage, uint64(k+2), append(p, 1))
	}
	frame(&buf, wire.FrameBye, frames+2, nil)
	return buf.Bytes()
}

// TestWideDeltaBounded: a receiver rejects a clock longer than the
// session's announced thread count before allocating it. Strict mode
// fails with ErrBadLength; resync mode counts every message frame as
// corrupt and retains under 1 MB; a lossy analysis ends degraded,
// never confident.
func TestWideDeltaBounded(t *testing.T) {
	raw := wideDeltaStream(t)
	if _, err := observer.Drain(wire.NewReceiver(bytes.NewReader(raw))); !errors.Is(err, wire.ErrBadLength) {
		t.Fatalf("strict receiver: err = %v, want ErrBadLength", err)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r := wire.NewResyncReceiver(bytes.NewReader(raw))
	for {
		if _, err := r.Next(); err != nil {
			break
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	kept := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if st := r.Stats(); st.CorruptFrames != 16 || !r.SawBye() {
		t.Fatalf("resync receiver: %s, bye %v; want 16 corrupt frames and the bye", st, r.SawBye())
	}
	runtime.KeepAlive(r)
	if kept > 1<<20 {
		t.Fatalf("resync receiver retains %d bytes after a %d-byte stream, want under 1 MB", kept, len(raw))
	}
	t.Logf("%d-byte stream: resync receiver retains %d bytes, allocated %d", len(raw), kept, after.TotalAlloc-before.TotalAlloc)

	prog := monitor.MustCompile(logic.MustParseFormula("x < 5"))
	res, err := observer.Analyze(wire.NewResyncReceiver(bytes.NewReader(raw)), prog, predict.Options{Lossy: true})
	if err != nil {
		t.Fatalf("lossy analysis: %v", err)
	}
	if !res.Degraded.Any() || len(res.Degraded.Wire) != 1 || res.Degraded.Wire[0].CorruptFrames != 16 {
		t.Fatalf("lossy analysis: %v, want degraded with 16 corrupt frames", res.Degraded)
	}
}

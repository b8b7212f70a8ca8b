package observer_test

import (
	"bytes"
	"fmt"
	"testing"

	"gompax/internal/instrument"
	"gompax/internal/logic"
	"gompax/internal/monitor"
	"gompax/internal/mtl"
	"gompax/internal/observer"
	"gompax/internal/predict"
	"gompax/internal/progs"
	"gompax/internal/sched"
	"gompax/internal/testsupport/wirev2"
	"gompax/internal/wire"
)

// chanSessionSource has, on a complete session, at least one
// send-on-closed finding on d (thread 2's send is never synchronized
// with thread 1's close, so it is either executed after the close —
// observed — or concurrent with it — predicted) and one lost-message
// finding on c (two sends, one receive). It terminates at every seed.
const chanSessionSource = `
shared done = 0;
chan c = 4;
chan d = 1;
thread a { send(c, 1); send(c, 2); done = 1; }
thread b { var x = 0; x = recv(c); close(d); }
thread e { send(d, 9); }
`

// streamChanSession compiles and streams the channel program for one
// seed, returning the raw session bytes.
func streamChanSession(t *testing.T, seed int64) []byte {
	t.Helper()
	prog, err := mtl.Parse(chanSessionSource)
	if err != nil {
		t.Fatal(err)
	}
	code, err := mtl.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	f := logic.MustParseFormula("done >= 0")
	policy := instrument.PolicyFor(f)
	initial, err := instrument.InitialState(prog, f)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := instrument.RunStreaming(code, policy, initial, sched.NewRandom(seed), 0, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func msgKeys(res predict.Result) []string { return res.Messaging.Keys() }

// TestChannelSessionAnalyzedOverWire checks the clean end-to-end path:
// a streamed channel session reaches the observer with a messaging
// report whose complete-session analyses all fired.
func TestChannelSessionAnalyzedOverWire(t *testing.T) {
	raw := streamChanSession(t, 11)
	prog := monitor.MustCompile(logic.MustParseFormula("done >= 0"))
	res, err := observer.Analyze(wire.NewReceiver(bytes.NewReader(raw)), prog, predict.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Messaging
	if m == nil {
		t.Fatal("channel session produced no messaging report")
	}
	if m.Abstained {
		t.Fatalf("clean complete session abstained: %+v", m)
	}
	if m.SendOnClosed == 0 {
		t.Fatalf("send-on-closed on d not detected: %+v", m.Findings)
	}
	if m.LostMessages == 0 {
		t.Fatalf("lost message on c not detected: %+v", m.Findings)
	}
}

// TestChannelLossOnlyWeakensVerdicts is the chaos pin for the channel
// analyses: streaming the same session through the fault injector at
// any corruption rate may lose findings but must never invent one the
// clean session lacked (send-on-closed is per-pair over delivered
// messages), and once any frame is damaged the whole-stream analyses
// (lost-message, partial-deadlock) must abstain rather than guess.
func TestChannelLossOnlyWeakensVerdicts(t *testing.T) {
	raw := streamChanSession(t, 11)
	prog := monitor.MustCompile(logic.MustParseFormula("done >= 0"))
	clean, err := observer.Analyze(wire.NewReceiver(bytes.NewReader(raw)), prog, predict.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cleanKeys := map[string]bool{}
	for _, k := range msgKeys(clean) {
		cleanKeys[k] = true
	}
	if len(cleanKeys) == 0 {
		t.Fatal("clean session has no findings; the chaos pin would be vacuous")
	}

	sawDamage := false
	for _, rate := range []float64{0.05, 0.25, 0.75} {
		for seed := int64(1); seed <= 8; seed++ {
			var damaged bytes.Buffer
			fw := wire.NewFaultWriter(&damaged, wire.FaultPlan{Seed: seed, Corrupt: rate, SpareHello: true})
			if _, err := fw.Write(raw); err != nil {
				t.Fatal(err)
			}
			if err := fw.Close(); err != nil {
				t.Fatal(err)
			}
			res, err := observer.Analyze(wire.NewResyncReceiver(bytes.NewReader(damaged.Bytes())), prog,
				predict.Options{Lossy: true})
			if err != nil {
				t.Fatalf("rate %v seed %d: lossy channel analysis errored: %v", rate, seed, err)
			}
			for _, k := range msgKeys(res) {
				if !cleanKeys[k] {
					t.Fatalf("rate %v seed %d: loss invented finding %q (clean: %v)", rate, seed, k, cleanKeys)
				}
			}
			if fw.Stats().Corrupted == 0 {
				// Nothing lost: the verdict must match the clean one exactly.
				if fmt.Sprint(msgKeys(res)) != fmt.Sprint(msgKeys(clean)) {
					t.Fatalf("rate %v seed %d: undamaged stream changed verdict: %v vs %v",
						rate, seed, msgKeys(res), msgKeys(clean))
				}
				continue
			}
			sawDamage = true
			if m := res.Messaging; m != nil {
				if !m.Abstained {
					t.Fatalf("rate %v seed %d: damaged session did not abstain: %+v", rate, seed, m)
				}
				if m.LostMessages != 0 || m.PartialDeadlocks != 0 {
					t.Fatalf("rate %v seed %d: whole-stream findings on a lossy session: %+v",
						rate, seed, m.Findings)
				}
			}
		}
	}
	if !sawDamage {
		t.Fatal("no seed/rate combination corrupted anything; test is vacuous")
	}
}

// reencodeV2 replays a drained session through a legacy protocol v2
// sender and returns the raw bytes — a capture-and-replay round trip.
func reencodeV2(t *testing.T, s *observer.Session) []byte {
	t.Helper()
	var buf bytes.Buffer
	snd := wirev2.NewSender(&buf)
	if err := snd.SendHello(s.Hello.Threads, s.Hello.Initial); err != nil {
		t.Fatal(err)
	}
	for _, m := range s.Messages {
		if err := snd.SendMessage(m); err != nil {
			t.Fatal(err)
		}
	}
	for tid, done := range s.Done {
		if done {
			if err := snd.SendThreadDone(tid); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := snd.SendBye(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestV2CaptureReplay confirms legacy captures still analyze: a
// channel session re-encoded with the v2 protocol yields the same
// messaging verdict as the v3 original, and a shared-variable-only v2
// session yields no messaging report at all — its result is exactly
// what the pre-channel observer produced.
func TestV2CaptureReplay(t *testing.T) {
	// Channel session through v2.
	raw := streamChanSession(t, 11)
	s, err := observer.Drain(wire.NewReceiver(bytes.NewReader(raw)))
	if err != nil {
		t.Fatal(err)
	}
	prog := monitor.MustCompile(logic.MustParseFormula("done >= 0"))
	resV3, err := observer.Analyze(wire.NewReceiver(bytes.NewReader(raw)), prog, predict.Options{})
	if err != nil {
		t.Fatal(err)
	}
	resV2, err := observer.Analyze(wire.NewReceiver(bytes.NewReader(reencodeV2(t, s))), prog, predict.Options{})
	if err != nil {
		t.Fatalf("v2 replay of a channel session: %v", err)
	}
	if resV2.Messaging == nil {
		t.Fatal("v2 channel replay lost the messaging report")
	}
	if fmt.Sprint(msgKeys(resV2)) != fmt.Sprint(msgKeys(resV3)) {
		t.Fatalf("v2 replay changed the messaging verdict: %v vs %v", msgKeys(resV2), msgKeys(resV3))
	}
	if resV2.Messaging.Abstained {
		t.Fatalf("complete v2 replay abstained: %+v", resV2.Messaging)
	}

	// Legacy shared-variable-only session through v2: no channel events,
	// so no messaging report — byte-identical behavior to the
	// pre-channel observer.
	legacyRaw := landingSessionWithLanding(t)
	ls, err := observer.Drain(wire.NewReceiver(bytes.NewReader(legacyRaw)))
	if err != nil {
		t.Fatal(err)
	}
	lprog := monitor.MustCompile(logic.MustParseFormula(progs.LandingProperty))
	lres, err := observer.Analyze(wire.NewReceiver(bytes.NewReader(reencodeV2(t, ls))), lprog, predict.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if lres.Messaging != nil {
		t.Fatalf("legacy session grew a messaging report: %+v", lres.Messaging)
	}
	if !lres.Violated() {
		t.Fatal("legacy v2 replay lost the landing violation")
	}
}

package observer_test

import (
	"bytes"
	"testing"

	"gompax/internal/clock"
	"gompax/internal/event"
	"gompax/internal/logic"
	"gompax/internal/monitor"
	"gompax/internal/observer"
	"gompax/internal/predict"
	"gompax/internal/progs"
	"gompax/internal/wire"
)

// FuzzObserverSession feeds arbitrary bytes to the session loop: through
// a resync receiver into a lossy, budgeted AnalyzeSession, and through a
// strict receiver into Analyze. Neither may panic, and both must
// return; the budget keeps a fuzzer-built lattice from running long.
// A lossy result that is neither degraded nor violated at the root
// must have applied every message: one lattice level per message that
// Drain reads from the same bytes.
func FuzzObserverSession(f *testing.F) {
	f.Add(streamSession(f, 1))
	x := logic.StateFromMap(map[string]int64{"x": 0})
	frames := func(send func(s *wire.Sender)) []byte {
		var buf bytes.Buffer
		s := wire.NewSender(&buf)
		send(s)
		s.SendBye()
		return buf.Bytes()
	}
	f.Add(frames(func(s *wire.Sender) { s.SendHello(wire.Hello{Threads: 1 << 40, Initial: x}) }))
	f.Add(frames(func(s *wire.Sender) {
		s.SendHello(wire.Hello{Threads: 1, Initial: x})
		s.SendThreadDone(7)
	}))
	f.Add(frames(func(s *wire.Sender) {
		s.SendMessage(sampleMsg())
		s.SendHello(wire.Hello{Threads: 1, Initial: x})
	}))
	f.Add(stalledSession())
	f.Add(wideDeltaStream(f))
	// A write of a variable the initial state does not bind, which the
	// analysis treats as state-neutral, like a channel event.
	f.Add(frames(func(s *wire.Sender) {
		s.SendHello(wire.Hello{Threads: 1, Initial: logic.StateFromMap(map[string]int64{"landing": 0, "approved": 0, "radio": 0})})
		s.SendMessage(event.Message{
			Event: event.Event{Thread: 0, Index: 1, Kind: event.Write, Var: "ghost", Value: 1, Relevant: true},
			Clock: clock.Of(1),
		})
		s.SendThreadDone(0)
	}))
	prog := monitor.MustCompile(logic.MustParseFormula(progs.LandingProperty))
	budget := predict.Options{MaxCuts: 512, MaxWidth: 32}
	f.Fuzz(func(t *testing.T, data []byte) {
		lossy := budget
		lossy.Lossy = true
		res, err := observer.AnalyzeSession([]*wire.Receiver{wire.NewResyncReceiver(bytes.NewReader(data))}, prog,
			observer.SessionOptions{Predict: lossy})
		observer.Analyze(wire.NewReceiver(bytes.NewReader(data)), prog, budget)
		if err != nil || res.Degraded.Any() || res.Violated() && res.Violations[0].Level == 0 {
			return
		}
		s, derr := observer.Drain(wire.NewResyncReceiver(bytes.NewReader(data)))
		if derr != nil {
			return
		}
		if applied := res.Stats.Levels - 1; applied != len(s.Messages) {
			t.Fatalf("confident verdict applied %d of %d delivered messages", applied, len(s.Messages))
		}
	})
}

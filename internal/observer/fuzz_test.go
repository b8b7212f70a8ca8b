package observer_test

import (
	"bytes"
	"testing"

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
	prog := monitor.MustCompile(logic.MustParseFormula(progs.LandingProperty))
	budget := predict.Options{MaxCuts: 512, MaxWidth: 32}
	f.Fuzz(func(t *testing.T, data []byte) {
		lossy := budget
		lossy.Lossy = true
		observer.AnalyzeSession([]*wire.Receiver{wire.NewResyncReceiver(bytes.NewReader(data))}, prog,
			observer.SessionOptions{Predict: lossy})
		observer.Analyze(wire.NewReceiver(bytes.NewReader(data)), prog, budget)
	})
}

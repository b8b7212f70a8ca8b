package driver

import (
	"os"
	"strings"
	"testing"

	"gompax/internal/lattice"
	"gompax/internal/logic"
	"gompax/internal/monitor"
	"gompax/internal/predict"
	"gompax/internal/progs"
	"gompax/internal/trace"
)

// TestGoldenFig6Trace pins the Fig. 6 reproduction to a checked-in
// trace file: the golden observer messages (with the figure's exact
// clocks) must keep producing the figure's lattice and verdicts. If
// the wire format, the lattice construction or the analyzer changes
// behaviour, this test catches it against a stable artifact.
func TestGoldenFig6Trace(t *testing.T) {
	f, err := os.Open("../../testdata/crossing_fig6.trace")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	msgs, err := trace.ReadMessages(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 4 {
		t.Fatalf("golden trace has %d messages", len(msgs))
	}
	// The clocks are exactly the figure's.
	wantClocks := map[string]string{
		"x|0": "1",   // e1 <x=0,T1,(1,0)>
		"z|1": "1,1", // e2 <z=1,T2,(1,1)>
		"y|1": "2",   // e3 <y=1,T1,(2,0)>
		"x|1": "1,2", // e4 <x=1,T2,(1,2)>
	}
	for _, m := range msgs {
		key := m.Event.Var + "|" + itoa(m.Event.Value)
		want, ok := wantClocks[key]
		if !ok {
			t.Fatalf("unexpected message %v", m)
		}
		if m.Clock.Key() != want {
			t.Fatalf("message %v clock %q, want %q", m, m.Clock.Key(), want)
		}
	}

	initial := logic.StateFromMap(map[string]int64{"x": -1, "y": 0, "z": 0})
	comp, err := lattice.NewComputation(initial, 2, msgs)
	if err != nil {
		t.Fatal(err)
	}
	prog := monitor.MustCompile(logic.MustParseFormula(progs.CrossingProperty))
	rep, err := predict.EnumerateRuns(prog, comp, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Nodes != 7 || rep.Total != 3 || rep.Violating != 1 {
		t.Fatalf("golden lattice: nodes=%d runs=%d violating=%d, want 7/3/1",
			rep.Nodes, rep.Total, rep.Violating)
	}
}

func itoa(v int64) string {
	// strconv with less import noise for two digits.
	s := ""
	if v < 0 {
		s = "-"
		v = -v
	}
	digits := "0123456789"
	if v < 10 {
		return s + string(digits[v])
	}
	return s + string(digits[v/10]) + string(digits[v%10])
}

// TestGoldenTraceSurvivesWireRoundTrip: the golden messages survive the
// binary wire codec unchanged.
func TestGoldenTraceSurvivesWireRoundTrip(t *testing.T) {
	f, err := os.Open("../../testdata/crossing_fig6.trace")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	msgs, err := trace.ReadMessages(f)
	if err != nil {
		t.Fatal(err)
	}
	var printed []string
	for _, m := range msgs {
		printed = append(printed, m.String())
	}
	joined := strings.Join(printed, "\n")
	// Clocks render normalized: trailing zero components are
	// dropped, so T1's clocks print as (1) and (2), not (1,0) and (2,0).
	want := strings.Join([]string{
		"<x=0, T1, (1)>",
		"<z=1, T2, (1,1)>",
		"<y=1, T1, (2)>",
		"<x=1, T2, (1,2)>",
	}, "\n")
	if joined != want {
		t.Fatalf("golden messages render as:\n%s\nwant:\n%s", joined, want)
	}
}

package trace

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"gompax/internal/clock"
	"gompax/internal/event"
	"gompax/internal/mvc"
)

func TestRandomOpsShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := GenConfig{Threads: 3, Vars: 2, Length: 200}
	ops := RandomOps(rng, cfg)
	if len(ops) < 200 {
		t.Fatalf("len = %d", len(ops))
	}
	held := map[int]string{}
	for _, op := range ops {
		if op.Thread < 0 || op.Thread >= 3 {
			t.Fatalf("bad thread %d", op.Thread)
		}
		switch op.Kind {
		case event.Acquire:
			if held[op.Thread] != "" {
				t.Fatalf("nested lock in generated workload")
			}
			held[op.Thread] = op.Var
		case event.Release:
			if held[op.Thread] != op.Var {
				t.Fatalf("release of unheld lock")
			}
			held[op.Thread] = ""
		case event.Read, event.Write, event.Internal:
		default:
			t.Fatalf("unexpected kind %v", op.Kind)
		}
	}
	for th, l := range held {
		if l != "" {
			t.Fatalf("thread %d ends holding %s", th, l)
		}
	}
}

func TestRandomOpsDefaults(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ops := RandomOps(rng, GenConfig{Length: 50})
	if len(ops) < 50 {
		t.Fatalf("defaults broken")
	}
}

func TestExecute(t *testing.T) {
	ops := []Op{
		{Thread: 0, Kind: event.Write, Var: "x0", Value: 1},
		{Thread: 1, Kind: event.Read, Var: "x0", Value: 1},
		{Thread: 1, Kind: event.Write, Var: "x1", Value: 2},
	}
	events, msgs := Execute(ops, 2, mvc.WritesOf("x0", "x1"))
	if len(events) != 3 {
		t.Fatalf("events = %d", len(events))
	}
	if len(msgs) != 2 {
		t.Fatalf("messages = %d", len(msgs))
	}
	if events[0].Seq != 1 || events[2].Seq != 3 {
		t.Fatalf("sequence numbers wrong: %v", events)
	}
	if !msgs[0].Precedes(msgs[1]) {
		t.Fatalf("causality broken")
	}
}

func TestMaxThread(t *testing.T) {
	if MaxThread(nil) != 0 {
		t.Fatalf("empty ops")
	}
	ops := []Op{{Thread: 4}, {Thread: 1}}
	if MaxThread(ops) != 5 {
		t.Fatalf("MaxThread = %d", MaxThread(ops))
	}
}

func TestVarName(t *testing.T) {
	if VarName(3) != "x3" {
		t.Fatalf("VarName = %q", VarName(3))
	}
}

func TestGoldenRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ops := RandomOps(rng, GenConfig{Threads: 3, Vars: 3, Length: 60})
	_, msgs := Execute(ops, 3, mvc.Everything())
	var buf bytes.Buffer
	if err := WriteMessages(&buf, msgs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMessages(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(msgs) {
		t.Fatalf("got %d messages, want %d", len(got), len(msgs))
	}
	for i := range msgs {
		if got[i].Event != msgs[i].Event {
			t.Fatalf("message %d event: %+v vs %+v", i, got[i].Event, msgs[i].Event)
		}
		if !clock.Equal(got[i].Clock, msgs[i].Clock) {
			t.Fatalf("message %d clock: %v vs %v", i, got[i].Clock, msgs[i].Clock)
		}
	}
}

func TestGoldenCommentsAndBlanks(t *testing.T) {
	src := `
# a golden trace
write 0 1 1 1 x 5 1 0

read 1 1 2 0 x 5 1 0
`
	msgs, err := ReadMessages(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 2 {
		t.Fatalf("messages = %d", len(msgs))
	}
	if msgs[0].Event.Kind != event.Write || msgs[0].Event.Value != 5 {
		t.Fatalf("parsed %v", msgs[0])
	}
	if msgs[1].Event.Relevant {
		t.Fatalf("relevant flag wrong")
	}
}

func TestGoldenErrors(t *testing.T) {
	bad := []string{
		"write 0 1",                 // too few fields
		"banana 0 1 1 1 x 5 1 0",    // unknown kind
		"write a 1 1 1 x 5 1 0",     // bad number
		"write 0 1 1 1 x notanum 1", // bad value
	}
	for _, src := range bad {
		if _, err := ReadMessages(strings.NewReader(src)); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestGoldenEmptyVarEscaping(t *testing.T) {
	msgs := []event.Message{{
		Event: event.Event{Kind: event.Internal, Thread: 0, Index: 1, Seq: 1},
		Clock: clock.Of(1),
	}}
	var buf bytes.Buffer
	if err := WriteMessages(&buf, msgs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMessages(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Event.Var != "" {
		t.Fatalf("empty var not restored: %q", got[0].Event.Var)
	}
}

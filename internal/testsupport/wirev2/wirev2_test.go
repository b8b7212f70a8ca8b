package wirev2_test

import (
	"bytes"
	"encoding/hex"
	"errors"
	"testing"

	"gompax/internal/clock"
	"gompax/internal/event"
	"gompax/internal/logic"
	"gompax/internal/testsupport/wirev2"
	"gompax/internal/wire"
)

// goldenMessages cover a shared-variable write, a channel send with a
// FIFO slot, a channel block with auxiliary detail, and an irrelevant
// read with a negative value.
func goldenMessages() []event.Message {
	return []event.Message{
		{Event: event.Event{Seq: 1, Thread: 0, Index: 1, Kind: event.Write, Var: "x", Value: 5, Relevant: true}, Clock: clock.Of(1, 0)},
		{Event: event.Event{Seq: 2, Thread: 1, Index: 1, Kind: event.ChanSend, Var: "c", Value: 7, Slot: 1, Relevant: true}, Clock: clock.Of(1, 1)},
		{Event: event.Event{Seq: 3, Thread: 1, Index: 2, Kind: event.ChanBlock, Var: "c", Relevant: true, Aux: "select:recv(c)"}, Clock: clock.Of(1, 2)},
		{Event: event.Event{Seq: 4, Thread: 0, Index: 2, Kind: event.Read, Var: "x", Value: -300}, Clock: clock.Of(2, 2)},
	}
}

// goldenSession is the session above as the v2 sender that used to
// ship in package wire framed it: Hello, four messages, two
// ThreadDones and a Bye.
const goldenSession = "a701010c3075ad0502020204646f6e6500017801" +
	"a702020a1bbb27a8020001010101780a0101" +
	"a702030d84251dca080101020101630e0100020101" +
	"a702041bc9bb16150d01020301016300000e73656c6563743a72656376286329020102" +
	"a702050c4521436e01000204000178d704020202" +
	"a70306019eac56e800" +
	"a7030701e3bd7cbf01" +
	"a7040800d8c4ae63"

// TestGoldenSession pins the v2 frame format byte for byte, and checks
// that the current receiver reads the session back unchanged.
func TestGoldenSession(t *testing.T) {
	initial := logic.StateFromMap(map[string]int64{"x": -1, "done": 0})
	var buf bytes.Buffer
	s := wirev2.NewSender(&buf)
	if err := s.SendHello(2, initial); err != nil {
		t.Fatal(err)
	}
	msgs := goldenMessages()
	for _, m := range msgs {
		if err := s.SendMessage(m); err != nil {
			t.Fatal(err)
		}
	}
	for _, thread := range []int{0, 1} {
		if err := s.SendThreadDone(thread); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SendBye(); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(buf.Bytes()); got != goldenSession {
		t.Fatalf("v2 session bytes changed:\n got %s\nwant %s", got, goldenSession)
	}

	r := wire.NewReceiver(bytes.NewReader(buf.Bytes()))
	f, err := r.Next()
	if err != nil || f.Kind != wire.FrameHello {
		t.Fatalf("hello: %v %v", f, err)
	}
	if f.Hello.Version != wire.ProtocolVersionV2 || f.Hello.Threads != 2 || f.Hello.Initial.Key() != initial.Key() {
		t.Fatalf("hello decoded as %+v", *f.Hello)
	}
	for k, want := range msgs {
		f, err := r.Next()
		if err != nil || f.Kind != wire.FrameMessage {
			t.Fatalf("message %d: %v %v", k, f, err)
		}
		if f.Msg.Event != want.Event || !clock.Equal(f.Msg.Clock, want.Clock) {
			t.Fatalf("message %d: got %v, want %v", k, f.Msg, want)
		}
	}
	for _, thread := range []int{0, 1} {
		if f, err := r.Next(); err != nil || f.Kind != wire.FrameThreadDone || f.Thread != thread {
			t.Fatalf("thread-done %d: %v %v", thread, f, err)
		}
	}
	if _, err := r.Next(); !errors.Is(err, wire.ErrClosed) || r.Stats().Lossy() {
		t.Fatalf("bye: %v, stats %v", err, r.Stats())
	}
}

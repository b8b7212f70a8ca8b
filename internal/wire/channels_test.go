package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"gompax/internal/clock"
	"gompax/internal/event"
	"gompax/internal/logic"
	"gompax/internal/testsupport/wirev2"
)

func channelMessages() []event.Message {
	return []event.Message{
		{Event: event.Event{Seq: 1, Thread: 1, Index: 1, Kind: event.ChanBlock, Var: "c", Relevant: true,
			Aux: "select:recv(c),send(d)"}, Clock: clock.Of(0, 1)},
		{Event: event.Event{Seq: 2, Thread: 0, Index: 1, Kind: event.ChanSend, Var: "c", Value: 7, Slot: 1,
			Relevant: true}, Clock: clock.Of(1, 1)},
		{Event: event.Event{Seq: 3, Thread: 1, Index: 2, Kind: event.ChanRecv, Var: "c", Value: 7, Slot: 1,
			Relevant: true}, Clock: clock.Of(1, 2)},
		{Event: event.Event{Seq: 4, Thread: 0, Index: 2, Kind: event.ChanClose, Var: "c", Slot: 1,
			Relevant: true}, Clock: clock.Of(2, 1)},
		{Event: event.Event{Seq: 5, Thread: 1, Index: 3, Kind: event.ChanRecvClosed, Var: "c",
			Relevant: true}, Clock: clock.Of(2, 3)},
		{Event: event.Event{Seq: 6, Thread: 2, Index: 1, Kind: event.ChanSendClosed, Var: "c", Value: 9,
			Relevant: true}, Clock: clock.Of(2, 1, 1)},
	}
}

// TestChannelEventCodecRoundTrip checks the Slot/Aux extension through
// both the stateless v3 codec and the legacy v2 codec.
func TestChannelEventCodecRoundTrip(t *testing.T) {
	for _, m := range channelMessages() {
		buf := AppendMessage(nil, m)
		got, n, err := decodeMessage(buf)
		if err != nil {
			t.Fatalf("v3 decode %v: %v", m.Event.Kind, err)
		}
		if n != len(buf) || got.Event != m.Event || !clock.Equal(got.Clock, m.Clock) {
			t.Fatalf("v3 round trip %v: %+v vs %+v", m.Event.Kind, got, m)
		}
		buf2 := wirev2.AppendMessage(nil, m)
		got2, n2, err := decodeMessageV2(buf2)
		if err != nil {
			t.Fatalf("v2 decode %v: %v", m.Event.Kind, err)
		}
		if n2 != len(buf2) || got2.Event != m.Event || !clock.Equal(got2.Clock, m.Clock) {
			t.Fatalf("v2 round trip %v: %+v vs %+v", m.Event.Kind, got2, m)
		}
	}
}

func TestChannelEventCodecTruncation(t *testing.T) {
	buf := AppendMessage(nil, channelMessages()[0]) // has a long Aux
	for i := 0; i < len(buf); i++ {
		if _, _, err := decodeMessage(buf[:i]); err == nil {
			t.Fatalf("accepted truncation at %d", i)
		}
	}
}

// TestNonChannelEncodingUnchanged pins the wire extension to channel
// kinds alone: a shared-variable message must encode to exactly the
// bytes the pre-channel format produced (kind, thread, index, seq,
// relevant, var, value — no slot, no aux).
func TestNonChannelEncodingUnchanged(t *testing.T) {
	m := sampleMessages()[0]
	var want []byte
	want = append(want, byte(m.Event.Kind))
	want = binary.AppendUvarint(want, uint64(m.Event.Thread))
	want = binary.AppendUvarint(want, m.Event.Index)
	want = binary.AppendUvarint(want, m.Event.Seq)
	want = append(want, 1) // relevant
	want = binary.AppendUvarint(want, uint64(len(m.Event.Var)))
	want = append(want, m.Event.Var...)
	want = binary.AppendVarint(want, m.Event.Value)
	got := AppendMessage(nil, m)
	// Strip the clock suffix: the event prefix must match exactly.
	if !bytes.HasPrefix(got, want) {
		t.Fatalf("non-channel event encoding changed:\n got %x\nwant prefix %x", got, want)
	}
}

// TestChannelSessionRoundTrip streams channel events through a full
// sender/receiver session in both protocol versions, exercising the
// delta-clock interaction (consecutive same-thread messages trigger
// delta mode in v3; the Slot/Aux fields live in the event prefix, so
// they are orthogonal to the clock encoding).
func TestChannelSessionRoundTrip(t *testing.T) {
	msgs := []event.Message{
		{Event: event.Event{Seq: 1, Thread: 0, Index: 1, Kind: event.ChanSend, Var: "c", Value: 1, Slot: 1,
			Relevant: true}, Clock: clock.Of(1)},
		{Event: event.Event{Seq: 2, Thread: 0, Index: 2, Kind: event.ChanSend, Var: "c", Value: 2, Slot: 2,
			Relevant: true}, Clock: clock.Of(2)},
		{Event: event.Event{Seq: 3, Thread: 0, Index: 3, Kind: event.ChanClose, Var: "c", Slot: 2,
			Relevant: true}, Clock: clock.Of(3)},
		{Event: event.Event{Seq: 4, Thread: 1, Index: 1, Kind: event.ChanRecv, Var: "c", Value: 1, Slot: 1,
			Relevant: true}, Clock: clock.Of(1, 1)},
		{Event: event.Event{Seq: 5, Thread: 1, Index: 2, Kind: event.ChanRecv, Var: "c", Value: 2, Slot: 2,
			Relevant: true}, Clock: clock.Of(2, 2)},
		{Event: event.Event{Seq: 6, Thread: 1, Index: 3, Kind: event.ChanRecvClosed, Var: "c",
			Relevant: true}, Clock: clock.Of(3, 3)},
	}
	for name, mk := range map[string]func(io.Writer) sender{
		"v3": func(w io.Writer) sender { return NewSender(w) }, "v2": newSenderV2,
	} {
		var buf bytes.Buffer
		s := mk(&buf)
		if err := s.SendHello(Hello{Threads: 2, Initial: logic.StateFromMap(nil)}); err != nil {
			t.Fatal(err)
		}
		for _, m := range msgs {
			if err := s.SendMessage(m); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.SendBye(); err != nil {
			t.Fatal(err)
		}
		r := NewReceiver(&buf)
		f, err := r.Next()
		if err != nil || f.Kind != FrameHello {
			t.Fatalf("%s: hello: %v %v", name, f, err)
		}
		for i, want := range msgs {
			f, err := r.Next()
			if err != nil {
				t.Fatalf("%s: message %d: %v", name, i, err)
			}
			if f.Msg.Event != want.Event || !clock.Equal(f.Msg.Clock, want.Clock) {
				t.Fatalf("%s: message %d: got %+v want %+v", name, i, f.Msg, want)
			}
		}
		if _, err := r.Next(); err != ErrClosed {
			t.Fatalf("%s: missing bye: %v", name, err)
		}
		if r.Stats().Lossy() {
			t.Fatalf("%s: clean session marked lossy: %v", name, r.Stats())
		}
	}
}

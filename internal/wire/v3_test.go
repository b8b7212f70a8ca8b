package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"testing"

	"gompax/internal/clock"
	"gompax/internal/event"
	"gompax/internal/logic"
)

// chainMessages builds per-thread message chains whose clocks grow the
// way Algorithm A grows them: each message ticks its own component and
// occasionally absorbs another thread's progress, so a v3 sender
// delta-encodes almost all of them (crossing deltaRefresh boundaries
// when count is large enough).
func chainMessages(rng *rand.Rand, threads, count int) []event.Message {
	table := clock.NewTable()
	clocks := make([]clock.Ref, threads)
	var msgs []event.Message
	for k := 0; k < count; k++ {
		i := rng.Intn(threads)
		clocks[i] = table.Tick(clocks[i], i)
		if rng.Intn(4) == 0 {
			clocks[i] = table.Join(clocks[i], clocks[rng.Intn(threads)])
		}
		msgs = append(msgs, event.Message{
			Event: event.Event{
				Seq: uint64(k + 1), Thread: i, Index: clocks[i].Get(i),
				Kind: event.Write, Var: "x", Value: int64(k), Relevant: true,
			},
			Clock: clocks[i],
		})
	}
	return msgs
}

// encodeSession writes a full session for msgs with the given sender.
func encodeSession(t *testing.T, s *Sender, threads int, msgs []event.Message) {
	t.Helper()
	if err := s.SendHello(Hello{Threads: threads}); err != nil {
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
}

// drainMessages reads a session to its end, returning the message
// frames in delivery order.
func drainMessages(t *testing.T, r *Receiver) []event.Message {
	t.Helper()
	var out []event.Message
	for {
		f, err := r.Next()
		if errors.Is(err, ErrClosed) || errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatalf("receiver: %v", err)
		}
		if f.Kind == FrameMessage {
			out = append(out, f.Msg)
		}
	}
}

// TestDeltaRoundTripLongChains drives long per-thread chains (well past
// deltaRefresh) through the v3 delta encoder and checks the receiver
// recovers every message exactly, and that delta encoding actually
// engaged: on wide clocks (16 threads — narrow clocks are where the
// mode byte can make v3 a wash) the v3 stream must be smaller than the
// same session in v2.
func TestDeltaRoundTripLongChains(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	msgs := chainMessages(rng, 16, 600)

	var v3, v2 bytes.Buffer
	encodeSession(t, NewSender(&v3), 16, msgs)
	encodeSession(t, NewSenderV2(&v2), 16, msgs)
	if v3.Len() >= v2.Len() {
		t.Fatalf("v3 session (%dB) not smaller than v2 (%dB): deltas never engaged", v3.Len(), v2.Len())
	}

	got := drainMessages(t, NewReceiver(bytes.NewReader(v3.Bytes())))
	if len(got) != len(msgs) {
		t.Fatalf("decoded %d messages, want %d", len(got), len(msgs))
	}
	for k, m := range got {
		if m.Event != msgs[k].Event || !clock.Equal(m.Clock, msgs[k].Clock) {
			t.Fatalf("message %d: got %v, want %v", k, m, msgs[k])
		}
	}
}

// FuzzDeltaSession fuzzes the stateful delta codec end to end:
// fuzzer-chosen thread counts, chain lengths and join density generate
// a session whose clocks mostly delta-encode; strict decoding must
// reproduce every message bit for bit.
func FuzzDeltaSession(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(10))
	f.Add(int64(7), uint8(5), uint8(80))
	f.Add(int64(42), uint8(1), uint8(200))
	f.Fuzz(func(t *testing.T, seed int64, threads, count uint8) {
		nt := 1 + int(threads)%8
		nc := int(count)
		rng := rand.New(rand.NewSource(seed))
		msgs := chainMessages(rng, nt, nc)

		var buf bytes.Buffer
		encodeSession(t, NewSender(&buf), nt, msgs)
		got := drainMessages(t, NewReceiver(bytes.NewReader(buf.Bytes())))
		if len(got) != len(msgs) {
			t.Fatalf("decoded %d messages, want %d", len(got), len(msgs))
		}
		for k, m := range got {
			if m.Event != msgs[k].Event || !clock.Equal(m.Clock, msgs[k].Clock) {
				t.Fatalf("message %d: got %v, want %v", k, m, msgs[k])
			}
		}
	})
}

// TestCrossVersionSession is the compatibility contract: a legacy v2
// sender (full clock per message, no mode byte) must be fully readable
// by the current receiver, with the session version surfaced in the
// Hello, and the stateless v2 codec helpers must round-trip.
func TestCrossVersionSession(t *testing.T) {
	msgs := sampleMessages()
	var buf bytes.Buffer
	s := NewSenderV2(&buf)
	if err := s.SendHello(Hello{Threads: 3, Initial: logic.StateFromMap(map[string]int64{"x": -1})}); err != nil {
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

	r := NewReceiver(bytes.NewReader(buf.Bytes()))
	f, err := r.Next()
	if err != nil || f.Kind != FrameHello {
		t.Fatalf("hello: %v %v", f, err)
	}
	if f.Hello.Version != ProtocolVersionV2 {
		t.Fatalf("session version %d, want %d", f.Hello.Version, ProtocolVersionV2)
	}
	for k := range msgs {
		f, err = r.Next()
		if err != nil || f.Kind != FrameMessage {
			t.Fatalf("frame %d: %v %v", k, f, err)
		}
		if f.Msg.Event != msgs[k].Event || !clock.Equal(f.Msg.Clock, msgs[k].Clock) {
			t.Fatalf("v2 message %d: got %v, want %v", k, f.Msg, msgs[k])
		}
	}
	if _, err = r.Next(); !errors.Is(err, ErrClosed) {
		t.Fatalf("expected ErrClosed, got %v", err)
	}

	// The stateless v2 helpers agree with the stream codec.
	for _, m := range msgs {
		enc := AppendMessageV2(nil, m)
		got, n, err := DecodeMessageV2(enc)
		if err != nil || n != len(enc) {
			t.Fatalf("DecodeMessageV2: n=%d err=%v", n, err)
		}
		if got.Event != m.Event || !clock.Equal(got.Clock, m.Clock) {
			t.Fatalf("v2 codec round trip changed %v to %v", m, got)
		}
	}

	// A v2 payload fed to the v3 stateless decoder fails cleanly: the
	// first clock byte is a component count, not a valid mode.
	bad := AppendMessageV2(nil, event.Message{
		Event: event.Event{Thread: 0, Index: 1, Kind: event.Write, Var: "x", Relevant: true},
		Clock: clock.Of(7, 7),
	})
	if _, _, err := DecodeMessage(bad); !errors.Is(err, ErrBadClockMode) {
		t.Fatalf("v2 payload under v3 decoder: got %v, want ErrBadClockMode", err)
	}
}

// TestCorruptedDeltaChainResync pins the blast radius of a lost delta
// base: dropping one mid-chain message frame breaks every later delta
// of that thread until the sender's next scheduled full clock
// (deltaRefresh), where the resync receiver recovers. The broken
// deltas are accounted as corrupt frames, never delivered with wrong
// clocks, and total loss is bounded by deltaRefresh messages.
func TestCorruptedDeltaChainResync(t *testing.T) {
	const n = 80
	table := clock.NewTable()
	var (
		msgs []event.Message
		c    clock.Ref
	)
	for k := 1; k <= n; k++ {
		c = table.Tick(c, 0)
		msgs = append(msgs, event.Message{
			Event: event.Event{Seq: uint64(k), Thread: 0, Index: uint64(k), Kind: event.Write, Var: "x", Value: int64(k), Relevant: true},
			Clock: c,
		})
	}
	var buf bytes.Buffer
	encodeSession(t, NewSender(&buf), 1, msgs)
	frames := splitFrames(t, buf.Bytes())
	// frames[0] is the Hello; frames[k] carries message k (1-based).
	// Message 1 is full; messages 2..32 are deltas; message 33 is the
	// deltaRefresh full clock; and so on. Drop message 10's frame.
	const dropped = 10
	var spliced []byte
	for i, f := range frames {
		if i == dropped {
			continue
		}
		spliced = append(spliced, f...)
	}

	r := NewResyncReceiver(bytes.NewReader(spliced))
	got := drainMessages(t, r)

	// Messages 1..9 survive, 10 was dropped, 11..32 chain to lost
	// state, 33.. recover at the full clock.
	var wantIdx []uint64
	for k := 1; k < dropped; k++ {
		wantIdx = append(wantIdx, uint64(k))
	}
	for k := deltaRefresh + 1; k <= n; k++ {
		wantIdx = append(wantIdx, uint64(k))
	}
	if len(got) != len(wantIdx) {
		t.Fatalf("delivered %d messages, want %d", len(got), len(wantIdx))
	}
	for k, m := range got {
		if m.Event.Index != wantIdx[k] {
			t.Fatalf("delivery %d is message %d, want %d", k, m.Event.Index, wantIdx[k])
		}
		if own := m.Clock.Get(0); own != wantIdx[k] {
			t.Fatalf("message %d delivered with clock %v", m.Event.Index, m.Clock)
		}
	}
	lost := n - len(got)
	if lost > deltaRefresh {
		t.Fatalf("lost %d messages, deltaRefresh bounds loss to %d", lost, deltaRefresh)
	}

	stats := r.Stats()
	if stats.Gaps != 1 {
		t.Fatalf("gaps = %d, want 1: %s", stats.Gaps, stats)
	}
	if want := deltaRefresh - dropped; stats.CorruptFrames != want {
		t.Fatalf("corrupt frames = %d, want %d: %s", stats.CorruptFrames, want, stats)
	}
	if stats.Duplicates != 0 {
		t.Fatalf("duplicates = %d, want 0: %s", stats.Duplicates, stats)
	}
	if !stats.Lossy() {
		t.Fatal("stats should report a lossy channel")
	}
}

// TestClockBoundFollowsHello: a receiver bounds every decoded clock by
// the thread count of the last delivered Hello — a full clock by its
// count, a delta by its base and by each index it raises.
func TestClockBoundFollowsHello(t *testing.T) {
	msg := func(comps ...uint64) event.Message {
		return event.Message{
			Event: event.Event{Thread: 0, Index: comps[0], Kind: event.Write, Var: "x", Relevant: true},
			Clock: clock.Of(comps...),
		}
	}
	for _, tc := range []struct {
		name string
		send func(s *Sender)
	}{
		{"full clock", func(s *Sender) {
			s.SendHello(Hello{Threads: 2})
			s.SendMessage(msg(1, 0, 1))
		}},
		{"delta index", func(s *Sender) {
			s.SendHello(Hello{Threads: 2})
			s.SendMessage(msg(1))
			s.SendMessage(msg(2, 0, 1))
		}},
		{"delta base", func(s *Sender) {
			s.SendHello(Hello{Threads: 3})
			s.SendMessage(msg(1, 0, 1))
			s.SendHello(Hello{Threads: 1})
			s.SendMessage(msg(2, 0, 1))
		}},
		{"delta index overflow", func(s *Sender) {
			// One (gap, increment) pair whose gap does not fit an int.
			s.SendHello(Hello{Threads: 2})
			p := append(appendEventFields(nil, msg(1)), clockDelta, 0, 1)
			p = binary.AppendUvarint(p, 1<<63)
			s.frame(FrameMessage, append(p, 1))
		}},
	} {
		var buf bytes.Buffer
		s := NewSender(&buf)
		tc.send(s)
		if err := s.SendBye(); err != nil {
			t.Fatal(err)
		}
		r := NewReceiver(&buf)
		var err error
		for err == nil {
			_, err = r.Next()
		}
		if !errors.Is(err, ErrBadLength) {
			t.Errorf("%s: err = %v, want ErrBadLength", tc.name, err)
		}
	}
}

// TestDeltaCrossRepresentation pins the wire contract at deep thread
// counts: the same message chains, up to 1,024 threads wide, encoded
// once with v3 deltas and once with v2 full clocks, must both
// round-trip to clocks Equal to the source with identical canonical
// keys — the delta encoding (ascending (index, delta) emission via
// clock.Diff) loses nothing a full clock carries.
func TestDeltaCrossRepresentation(t *testing.T) {
	for _, tc := range []struct{ threads, count int }{
		{4, 200},
		{100, 400},
		{1024, 600},
	} {
		msgs := chainMessages(rand.New(rand.NewSource(42)), tc.threads, tc.count)
		var v3, v2 bytes.Buffer
		encodeSession(t, NewSender(&v3), tc.threads, msgs)
		encodeSession(t, NewSenderV2(&v2), tc.threads, msgs)
		for name, buf := range map[string]*bytes.Buffer{"v3": &v3, "v2": &v2} {
			got := drainMessages(t, NewReceiver(buf))
			if len(got) != len(msgs) {
				t.Fatalf("t%d %s: round-trip returned %d messages, want %d", tc.threads, name, len(got), len(msgs))
			}
			for k := range got {
				if got[k].Event != msgs[k].Event {
					t.Fatalf("t%d %s msg %d: event differs after round-trip", tc.threads, name, k)
				}
				if !clock.Equal(got[k].Clock, msgs[k].Clock) || got[k].Clock.Key() != msgs[k].Clock.Key() {
					t.Fatalf("t%d %s msg %d: clock differs after round-trip", tc.threads, name, k)
				}
			}
		}
	}
}

package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"gompax/internal/clock"
	"gompax/internal/event"
	"gompax/internal/logic"
)

func sampleMessages() []event.Message {
	return []event.Message{
		{Event: event.Event{Seq: 1, Thread: 0, Index: 1, Kind: event.Write, Var: "x", Value: -3, Relevant: true}, Clock: clock.Of(1, 0)},
		{Event: event.Event{Seq: 4, Thread: 1, Index: 1, Kind: event.Write, Var: "longer_name", Value: 1 << 40, Relevant: true}, Clock: clock.Of(1, 1)},
		{Event: event.Event{Seq: 9, Thread: 1, Index: 2, Kind: event.Acquire, Var: "m", Value: 0, Relevant: true}, Clock: clock.Of(1, 2)},
		{Event: event.Event{Seq: 12, Thread: 2, Index: 1, Kind: event.Read, Var: "y", Value: 0, Relevant: false}, Clock: clock.Of(0, 0, 7)},
	}
}

func TestMessageCodecRoundTrip(t *testing.T) {
	for _, m := range sampleMessages() {
		buf := AppendMessage(nil, m)
		got, n, err := decodeMessage(buf)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if n != len(buf) {
			t.Fatalf("consumed %d of %d", n, len(buf))
		}
		if got.Event != m.Event || !clock.Equal(got.Clock, m.Clock) {
			t.Fatalf("round trip: %+v vs %+v", got, m)
		}
	}
}

func TestMessageCodecTruncation(t *testing.T) {
	buf := AppendMessage(nil, sampleMessages()[1])
	for i := 0; i < len(buf); i++ {
		if _, _, err := decodeMessage(buf[:i]); err == nil {
			t.Fatalf("accepted truncation at %d", i)
		}
	}
}

func TestSessionRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	s := NewSender(&buf)
	// Three threads: the last sample message is thread 2's, and a
	// receiver rejects a clock longer than the announced thread count.
	hello := Hello{Threads: 3, Initial: logic.StateFromMap(map[string]int64{"x": -1, "y": 0})}
	if err := s.SendHello(hello); err != nil {
		t.Fatal(err)
	}
	msgs := sampleMessages()
	for _, m := range msgs {
		if err := s.SendMessage(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SendThreadDone(1); err != nil {
		t.Fatal(err)
	}
	if err := s.SendBye(); err != nil {
		t.Fatal(err)
	}

	r := NewReceiver(&buf)
	f, err := r.Next()
	if err != nil || f.Kind != FrameHello {
		t.Fatalf("first frame: %v %v", f, err)
	}
	if f.Hello.Threads != 3 {
		t.Fatalf("threads = %d", f.Hello.Threads)
	}
	if v, _ := f.Hello.Initial.Lookup("x"); v != -1 {
		t.Fatalf("initial x = %d", v)
	}
	for i := range msgs {
		f, err = r.Next()
		if err != nil || f.Kind != FrameMessage {
			t.Fatalf("frame %d: %v %v", i, f, err)
		}
		if f.Msg.Event != msgs[i].Event {
			t.Fatalf("message %d mismatch", i)
		}
	}
	f, err = r.Next()
	if err != nil || f.Kind != FrameThreadDone || f.Thread != 1 {
		t.Fatalf("thread-done frame: %+v %v", f, err)
	}
	if _, err = r.Next(); err != ErrClosed {
		t.Fatalf("expected ErrClosed, got %v", err)
	}
}

func TestReceiverRejectsGarbage(t *testing.T) {
	r := NewReceiver(strings.NewReader("\xff\x01z"))
	if _, err := r.Next(); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("garbage: got %v, want ErrBadMagic", err)
	}
	// Oversized frame length.
	r = NewReceiver(bytes.NewReader([]byte{frameMagic, byte(FrameMessage), 1, 0xff, 0xff, 0xff, 0xff, 0x7f}))
	if _, err := r.Next(); !errors.Is(err, ErrBadLength) {
		t.Fatalf("oversized frame: got %v, want ErrBadLength", err)
	}
	// Unknown frame kind.
	r = NewReceiver(bytes.NewReader([]byte{frameMagic, 99, 1, 0}))
	if _, err := r.Next(); !errors.Is(err, ErrUnknownKind) {
		t.Fatalf("unknown kind: got %v, want ErrUnknownKind", err)
	}
}

// sessionBytes encodes a complete sample session.
func sessionBytes(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	s := NewSender(&buf)
	if err := s.SendHello(Hello{Threads: 3, Initial: logic.StateFromMap(map[string]int64{"x": -1})}); err != nil {
		t.Fatal(err)
	}
	for _, m := range sampleMessages() {
		if err := s.SendMessage(m); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := s.SendThreadDone(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SendBye(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// splitFrames cuts a raw session into its individual frames.
func splitFrames(t *testing.T, raw []byte) [][]byte {
	t.Helper()
	var frames [][]byte
	for len(raw) > 0 {
		n, err := frameSize(raw)
		if err != nil || n == 0 {
			t.Fatalf("frameSize: n=%d err=%v", n, err)
		}
		frames = append(frames, raw[:n])
		raw = raw[n:]
	}
	return frames
}

// drainFrames reads every frame until the stream ends.
func drainFrames(t *testing.T, r *Receiver) []Frame {
	t.Helper()
	var out []Frame
	for {
		f, err := r.Next()
		if errors.Is(err, ErrClosed) || errors.Is(err, io.EOF) {
			if errors.Is(err, ErrClosed) {
				out = append(out, f)
			}
			return out
		}
		if err != nil {
			t.Fatalf("next: %v", err)
		}
		out = append(out, f)
	}
}

func TestStrictChecksumError(t *testing.T) {
	raw := sessionBytes(t)
	frames := splitFrames(t, raw)
	// Flip a payload byte of the second frame (a message).
	corrupted := append([]byte(nil), raw...)
	corrupted[len(frames[0])+len(frames[1])-1] ^= 0x40
	r := NewReceiver(bytes.NewReader(corrupted))
	if _, err := r.Next(); err != nil {
		t.Fatalf("hello: %v", err)
	}
	_, err := r.Next()
	if !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("got %v, want ErrBadChecksum", err)
	}
	var fe *FrameError
	if !errors.As(err, &fe) {
		t.Fatalf("error %v is not a *FrameError", err)
	}
	if fe.Kind != FrameMessage || fe.Offset <= 0 {
		t.Fatalf("frame error lacks context: %+v", fe)
	}
}

func TestResyncSkipsCorruptFrame(t *testing.T) {
	raw := sessionBytes(t)
	frames := splitFrames(t, raw)
	corrupted := append([]byte(nil), raw...)
	corrupted[len(frames[0])+len(frames[1])-1] ^= 0x40 // second frame payload
	r := NewResyncReceiver(bytes.NewReader(corrupted))
	got := drainFrames(t, r)
	if len(got) != len(frames)-1 {
		t.Fatalf("delivered %d frames, want %d", len(got), len(frames)-1)
	}
	stats := r.Stats()
	if stats.CorruptFrames != 1 {
		t.Fatalf("corrupt frames = %d, want 1: %s", stats.CorruptFrames, stats)
	}
	if stats.SkippedBytes == 0 {
		t.Fatalf("no bytes skipped: %s", stats)
	}
	if !r.SawBye() {
		t.Fatalf("bye lost")
	}
}

func TestResyncRecoversFromStrayBytes(t *testing.T) {
	raw := sessionBytes(t)
	frames := splitFrames(t, raw)
	// Inject garbage between two frames.
	var spliced []byte
	spliced = append(spliced, frames[0]...)
	spliced = append(spliced, 0xde, 0xad, 0xbe, 0xef)
	for _, f := range frames[1:] {
		spliced = append(spliced, f...)
	}
	r := NewResyncReceiver(bytes.NewReader(spliced))
	got := drainFrames(t, r)
	if len(got) != len(frames) {
		t.Fatalf("delivered %d frames, want %d", len(got), len(frames))
	}
	if s := r.Stats(); s.SkippedBytes != 4 {
		t.Fatalf("skipped %d bytes, want 4", s.SkippedBytes)
	}
}

func TestSequenceGapsAndDuplicates(t *testing.T) {
	frames := splitFrames(t, sessionBytes(t))
	// Drop frame 4 (thread 2's only message, always sent with a full
	// clock) and duplicate frame 3. Frame 3 is delta-encoded against
	// frame 2, but the duplicate must be recognized by sequence number
	// *before* its payload is re-decoded, so it still counts as a
	// duplicate rather than a broken delta chain. Dropping a delta's
	// base frame is exercised separately in the corrupted-delta tests.
	var spliced []byte
	for i, f := range frames {
		if i == 4 {
			continue
		}
		spliced = append(spliced, f...)
		if i == 3 {
			spliced = append(spliced, f...)
		}
	}
	r := NewResyncReceiver(bytes.NewReader(spliced))
	got := drainFrames(t, r)
	if len(got) != len(frames)-1 {
		t.Fatalf("delivered %d frames, want %d", len(got), len(frames)-1)
	}
	stats := r.Stats()
	if stats.Gaps != 1 {
		t.Fatalf("gaps = %d, want 1: %s", stats.Gaps, stats)
	}
	if stats.Duplicates != 1 {
		t.Fatalf("duplicates = %d, want 1: %s", stats.Duplicates, stats)
	}
}

func TestLateGapFillerClearsGap(t *testing.T) {
	frames := splitFrames(t, sessionBytes(t))
	// Deliver frame 3 late: 0,1,2,4,3,5,... Frame 4 carries a full
	// clock (thread 2's first message) and frame 3's delta base (frame
	// 2) has already been delivered, so the reorder exercises pure
	// transport accounting without breaking any delta chain.
	order := []int{0, 1, 2, 4, 3}
	for i := 5; i < len(frames); i++ {
		order = append(order, i)
	}
	var spliced []byte
	for _, i := range order {
		spliced = append(spliced, frames[i]...)
	}
	r := NewResyncReceiver(bytes.NewReader(spliced))
	got := drainFrames(t, r)
	if len(got) != len(frames) {
		t.Fatalf("delivered %d frames, want %d", len(got), len(frames))
	}
	stats := r.Stats()
	if stats.Gaps != 0 || stats.Duplicates != 0 {
		t.Fatalf("late filler misaccounted: %s", stats)
	}
}

func TestHelloVersionMismatch(t *testing.T) {
	var buf bytes.Buffer
	s := NewSender(&buf)
	if err := s.SendHello(Hello{Threads: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// The version byte is the first payload byte; find it via frameSize
	// math: header is magic+kind+seq(1)+len(1)+crc(4).
	versionOff := len(raw) - 1 - 2 // payload = version + threads varint + count varint
	raw[versionOff] = ProtocolVersion + 9
	// Recompute the checksum so only the version is wrong.
	n, err := frameSize(raw)
	if err != nil || n != len(raw) {
		t.Fatalf("frameSize: %d %v", n, err)
	}
	crc := crc32.Update(0, castagnoli, raw[1:4])
	crc = crc32.Update(crc, castagnoli, raw[8:])
	binary.LittleEndian.PutUint32(raw[4:], crc)
	r := NewReceiver(bytes.NewReader(raw))
	if _, err := r.Next(); !errors.Is(err, ErrVersion) {
		t.Fatalf("got %v, want ErrVersion", err)
	}
}

// TestHelloThreadBound: a Hello announcing a thread count outside
// 1..MaxThreads is a malformed frame. The observer sizes per-thread
// state from the count, so a strict receiver must return the error and
// a resync receiver must count the frame corrupt and never deliver it.
func TestHelloThreadBound(t *testing.T) {
	encode := func(threads int) []byte {
		var buf bytes.Buffer
		s := NewSender(&buf)
		if err := s.SendHello(Hello{Threads: threads, Initial: logic.StateFromMap(map[string]int64{"x": 0})}); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, threads := range []int{0, MaxThreads + 1, 1 << 40, -1} {
		raw := encode(threads)
		if _, err := NewReceiver(bytes.NewReader(raw)).Next(); !errors.Is(err, ErrBadLength) {
			t.Errorf("threads=%d: strict receiver got %v, want ErrBadLength", threads, err)
		}
		r := NewResyncReceiver(bytes.NewReader(raw))
		if f, err := r.Next(); err != io.EOF {
			t.Errorf("threads=%d: resync receiver delivered %v (err %v), want EOF", threads, f.Kind, err)
		}
		if s := r.Stats(); s.CorruptFrames != 1 || s.Frames != 0 {
			t.Errorf("threads=%d: resync stats %s, want one corrupt frame", threads, s)
		}
	}
	for _, threads := range []int{1, MaxThreads} {
		f, err := NewReceiver(bytes.NewReader(encode(threads))).Next()
		if err != nil || f.Hello.Threads != threads {
			t.Errorf("threads=%d: got %+v, %v", threads, f.Hello, err)
		}
	}
}

// TestMessageThreadBound: a message whose thread the Hello did not
// announce (thread = Threads, or a uvarint of 2^63 or more, which
// would wrap negative) is rejected before delivery, so it never gets
// a delta base: ErrBadLength in strict mode, one corrupt frame in
// resync mode.
func TestMessageThreadBound(t *testing.T) {
	for _, thread := range []uint64{2, 1 << 63, 1<<64 - 1} {
		raw := strayThreadSession(thread)
		r := NewReceiver(bytes.NewReader(raw))
		delivered := 0
		var err error
		for err == nil {
			var f Frame
			if f, err = r.Next(); err == nil && f.Kind == FrameMessage {
				delivered++
			}
		}
		if !errors.Is(err, ErrBadLength) || delivered != 1 || len(r.last) != 1 {
			t.Errorf("thread %d: strict receiver delivered %d messages, holds %d delta bases, err %v; want 1, 1, ErrBadLength",
				thread, delivered, len(r.last), err)
		}
		r = NewResyncReceiver(bytes.NewReader(raw))
		delivered = 0
		for _, f := range drainFrames(t, r) {
			if f.Kind == FrameMessage {
				delivered++
			}
		}
		if s := r.Stats(); s.CorruptFrames != 1 || delivered != 1 || len(r.last) != 1 {
			t.Errorf("thread %d: resync receiver delivered %d messages, holds %d delta bases, stats %s; want 1, 1, one corrupt frame",
				thread, delivered, len(r.last), s)
		}
	}
	// The largest announced thread is accepted.
	delivered := 0
	for _, f := range drainFrames(t, NewReceiver(bytes.NewReader(strayThreadSession(1)))) {
		if f.Kind == FrameMessage {
			delivered++
		}
	}
	if delivered != 2 {
		t.Errorf("thread 1: delivered %d messages, want 2", delivered)
	}
}

// TestReceiverResumesAfterReadDeadline pins the contract the observer's
// inline read relies on: a Next that fails on the transport's read
// deadline mid-frame loses nothing, and once the deadline is extended
// the same Next delivers the frame. A transport without deadlines
// reports os.ErrNoDeadline.
func TestReceiverResumesAfterReadDeadline(t *testing.T) {
	raw := sessionBytes(t)
	frames := splitFrames(t, raw)
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	resume := make(chan struct{})
	go func() {
		half := len(frames[0]) / 2
		client.Write(frames[0][:half])
		<-resume
		client.Write(raw[half:])
		client.Close()
	}()
	r := NewReceiver(server)
	if err := r.SetReadDeadline(time.Now().Add(30 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	_, err := r.Next()
	close(resume)
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("first Next: %v, want the read deadline", err)
	}
	if err := r.SetReadDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
	got := drainFrames(t, r)
	if len(got) != len(frames) {
		t.Fatalf("delivered %d frames after the deadline, want %d", len(got), len(frames))
	}
	if s := r.Stats(); s.Lossy() {
		t.Fatalf("resumed read misaccounted: %s", s)
	}
	if err := NewReceiver(bytes.NewReader(raw)).SetReadDeadline(time.Now()); !errors.Is(err, os.ErrNoDeadline) {
		t.Fatalf("bytes.Reader transport: %v, want os.ErrNoDeadline", err)
	}
}

func TestTornTailResync(t *testing.T) {
	raw := sessionBytes(t)
	// Cut the stream inside the final frame.
	cut := raw[:len(raw)-3]
	r := NewResyncReceiver(bytes.NewReader(cut))
	got := drainFrames(t, r)
	frames := splitFrames(t, raw)
	if len(got) != len(frames)-1 {
		t.Fatalf("delivered %d frames, want %d", len(got), len(frames)-1)
	}
	if s := r.Stats(); s.SkippedBytes == 0 {
		t.Fatalf("torn tail not accounted: %s", s)
	}
	if r.SawBye() {
		t.Fatalf("bye reported despite truncation")
	}
}

func TestScramblePreservesMultiset(t *testing.T) {
	msgs := sampleMessages()
	got := Scramble(msgs, 42)
	if len(got) != len(msgs) {
		t.Fatalf("length changed")
	}
	seen := map[string]int{}
	for _, m := range msgs {
		seen[m.String()]++
	}
	for _, m := range got {
		seen[m.String()]--
	}
	for k, v := range seen {
		if v != 0 {
			t.Fatalf("multiset changed at %s", k)
		}
	}
}

func TestSplitAndInterleaveChannels(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var msgs []event.Message
	for i := 0; i < 30; i++ {
		th := rng.Intn(3)
		msgs = append(msgs, event.Message{
			Event: event.Event{Thread: th, Index: uint64(i), Var: "x", Kind: event.Write},
			Clock: clock.Of(uint64(i + 1)),
		})
	}
	chans := SplitByThread(msgs)
	merged := InterleaveChannels(chans, 9)
	if len(merged) != len(msgs) {
		t.Fatalf("lost messages")
	}
	// Per-thread order must be preserved.
	lastIdx := map[int]uint64{}
	for _, m := range merged {
		if m.Event.Index < lastIdx[m.Event.Thread] {
			t.Fatalf("thread %d order violated", m.Event.Thread)
		}
		lastIdx[m.Event.Thread] = m.Event.Index
	}
}

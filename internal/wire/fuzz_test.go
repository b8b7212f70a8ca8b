package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"gompax/internal/clock"
	"gompax/internal/event"
	"gompax/internal/logic"
)

// FuzzDecodeMessage checks the message decoder is total: arbitrary
// bytes either decode into a message that re-encodes losslessly, or
// fail cleanly with a typed error.
func FuzzDecodeMessage(f *testing.F) {
	for _, m := range []event.Message{
		{Event: event.Event{Thread: 0, Index: 1, Kind: event.Write, Var: "x", Value: -3, Relevant: true}, Clock: clock.Of(1, 0)},
		{Event: event.Event{Thread: 9, Index: 1 << 30, Kind: event.Acquire, Var: "", Value: 0}, Clock: clock.Ref{}},
	} {
		f.Add(AppendMessage(nil, m))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, n, err := decodeMessage(data)
		if err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("decode error %v does not wrap ErrBadFrame", err)
			}
			return
		}
		if n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		re := AppendMessage(nil, m)
		m2, _, err := decodeMessage(re)
		if err != nil {
			t.Fatalf("re-encode failed to decode: %v", err)
		}
		if m2.Event != m.Event || !clock.Equal(m2.Clock, m.Clock) {
			t.Fatalf("round trip changed message")
		}
	})
}

// fuzzSession encodes a fixed full session (Hello, Messages,
// ThreadDone, Bye) for the stream fuzzers, in the current protocol or,
// with v2 set, in legacy v2.
func fuzzSession(v2 bool) []byte {
	var buf bytes.Buffer
	var s sender = NewSender(&buf)
	if v2 {
		s = newSenderV2(&buf)
	}
	s.SendHello(Hello{Threads: 2, Initial: logic.StateFromMap(map[string]int64{"x": 1})})
	for _, m := range []event.Message{
		{Event: event.Event{Thread: 0, Index: 1, Kind: event.Write, Var: "x", Value: 5, Relevant: true}, Clock: clock.Of(1, 0)},
		{Event: event.Event{Thread: 1, Index: 1, Kind: event.Write, Var: "y", Value: -2, Relevant: true}, Clock: clock.Of(0, 1)},
		{Event: event.Event{Thread: 0, Index: 2, Kind: event.Read, Var: "y", Value: -2}, Clock: clock.Of(2, 1)},
	} {
		s.SendMessage(m)
	}
	s.SendThreadDone(0)
	s.SendThreadDone(1)
	s.SendBye()
	return buf.Bytes()
}

// strayThreadSession is a two-thread session whose second message
// names the given thread, bound or not, with an otherwise valid write
// and full clock; its first message is thread 0's.
func strayThreadSession(thread uint64) []byte {
	var buf bytes.Buffer
	s := NewSender(&buf)
	s.SendHello(Hello{Threads: 2})
	s.SendMessage(event.Message{Event: event.Event{Thread: 0, Index: 1, Kind: event.Write, Var: "x", Relevant: true}, Clock: clock.Of(1)})
	// The thread is the uvarint after the kind byte; thread 0 encodes
	// as the single byte 0.
	p := appendEventFields(nil, event.Message{Event: event.Event{Index: 1, Seq: 2, Kind: event.Write, Var: "x", Relevant: true}})
	p = append(binary.AppendUvarint([]byte{p[0]}, thread), p[2:]...)
	p = appendClockFull(append(p, clockFull), clock.Of(1))
	s.frame(FrameMessage, p)
	s.SendBye()
	return buf.Bytes()
}

// FuzzReceiver checks both receiver modes are total over arbitrary
// byte streams: no panics, guaranteed termination, and in resync mode
// consistent accounting.
func FuzzReceiver(f *testing.F) {
	f.Add(fuzzSession(false))
	f.Add([]byte{frameMagic, byte(FrameMessage), 1, 3, 0, 0, 0, 0, 1, 2, 3})
	f.Add([]byte{frameMagic, frameMagic, frameMagic})
	f.Add(fuzzSession(true))
	f.Add(strayThreadSession(1 << 63))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Strict mode: reads frames until the first error.
		r := NewReceiver(bytes.NewReader(data))
		for i := 0; i < 1+len(data); i++ {
			if _, err := r.Next(); err != nil {
				break
			}
		}
		// Resync mode: must terminate at EOF with consistent stats.
		r = NewResyncReceiver(bytes.NewReader(data))
		frames := 0
		for {
			_, err := r.Next()
			if errors.Is(err, ErrClosed) || errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatalf("resync receiver surfaced error: %v", err)
			}
			frames++
			if frames > len(data) {
				t.Fatalf("more frames than input bytes")
			}
		}
		stats := r.Stats()
		if stats.SkippedBytes > int64(len(data)) {
			t.Fatalf("skipped %d bytes of %d", stats.SkippedBytes, len(data))
		}
		if stats.Frames < frames {
			t.Fatalf("stats.Frames %d < delivered %d", stats.Frames, frames)
		}
	})
}

// FuzzSessionFaults pushes a full session through the fault-injecting
// writer at fuzzer-chosen rates and checks the resync receiver never
// panics, always terminates, and reports consistent SessionStats.
func FuzzSessionFaults(f *testing.F) {
	f.Add(int64(1), byte(10), byte(10), byte(5), byte(10), byte(10))
	f.Add(int64(99), byte(255), byte(0), byte(0), byte(0), byte(0))
	f.Add(int64(7), byte(0), byte(255), byte(255), byte(255), byte(255))
	f.Fuzz(func(t *testing.T, seed int64, drop, corrupt, trunc, dup, delay byte) {
		raw := fuzzSession(false)
		rate := func(b byte) float64 { return float64(b) / 255 }
		var damaged bytes.Buffer
		fw := NewFaultWriter(&damaged, FaultPlan{
			Seed:      seed,
			Drop:      rate(drop),
			Corrupt:   rate(corrupt),
			Truncate:  rate(trunc),
			Duplicate: rate(dup),
			Delay:     rate(delay),
		})
		if _, err := fw.Write(raw); err != nil {
			t.Fatal(err)
		}
		if err := fw.Close(); err != nil {
			t.Fatal(err)
		}
		fs := fw.Stats()
		sent := fs.Frames

		r := NewResyncReceiver(bytes.NewReader(damaged.Bytes()))
		delivered := 0
		for {
			_, err := r.Next()
			if errors.Is(err, ErrClosed) || errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatalf("receiver error: %v", err)
			}
			delivered++
		}
		stats := r.Stats()
		if delivered > sent+fs.Duplicated {
			t.Fatalf("delivered %d frames, sent %d (+%d dup)", delivered, sent, fs.Duplicated)
		}
		if stats.SkippedBytes > int64(damaged.Len()) {
			t.Fatalf("skipped %d of %d bytes", stats.SkippedBytes, damaged.Len())
		}
		if stats.Duplicates > fs.Duplicated {
			t.Fatalf("receiver saw %d duplicates, injector made %d", stats.Duplicates, fs.Duplicated)
		}
	})
}

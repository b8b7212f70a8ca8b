package wire

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"gompax/internal/clock"
	"gompax/internal/event"
	"gompax/internal/testsupport/wirev2"
)

// The package decodes only through a Receiver and encodes only v3.
// The tests below the stream level still decode one payload on its
// own, and write v2 sessions with package wirev2; these are the
// helpers for both.

// decodeMessage decodes one protocol v3 message payload on its own, as
// AppendMessage writes it, returning the bytes consumed. Failures are
// *FrameError values wrapping the package sentinels, with Offset
// relative to the start of buf.
func decodeMessage(buf []byte) (event.Message, int, error) {
	m, off, err := decodeEventFields(buf)
	if err != nil {
		return m, 0, err
	}
	if off >= len(buf) {
		return m, 0, msgErr(off, "clock mode", ErrTruncated)
	}
	mode := buf[off]
	off++
	switch mode {
	case clockFull:
		comps, n, err := decodeClockFull(buf, off, nil, MaxThreads)
		if err != nil {
			return m, 0, err
		}
		m.Clock = clock.New(comps)
		return m, off + n, nil
	case clockDelta:
		// Only a Receiver, carrying each thread's chain, can apply it.
		return m, 0, msgErr(off-1, "clock mode", fmt.Errorf("%w: delta clock needs stream context", ErrBadFrame))
	default:
		return m, 0, msgErr(off-1, "clock mode", ErrBadClockMode)
	}
}

// decodeMessageV2 decodes one protocol v2 message payload on its own,
// as wirev2.AppendMessage writes it, returning the bytes consumed.
func decodeMessageV2(buf []byte) (event.Message, int, error) {
	m, off, err := decodeEventFields(buf)
	if err != nil {
		return m, 0, err
	}
	comps, n, err := decodeClockFull(buf, off, nil, MaxThreads)
	if err != nil {
		return m, 0, err
	}
	m.Clock = clock.New(comps)
	return m, off + n, nil
}

// sender is what the session tests drive: the production *Sender or a
// legacy v2 one.
type sender interface {
	SendHello(Hello) error
	SendMessage(event.Message) error
	SendThreadDone(thread int) error
	SendBye() error
}

// v2Sender gives wirev2's encoder the Sender's Hello signature.
type v2Sender struct{ *wirev2.Sender }

func (s v2Sender) SendHello(h Hello) error { return s.Sender.SendHello(h.Threads, h.Initial) }

// newSenderV2 writes legacy protocol v2 (a full clock per message) to
// w: the shape of an old client talking to a new observer.
func newSenderV2(w io.Writer) sender { return v2Sender{wirev2.NewSender(w)} }

// TestV2PayloadIsV3FullWithoutMode ties wirev2's encoder, written apart
// from this package, to the production one: a v2 message payload is
// the v3 full-clock payload without its mode byte.
func TestV2PayloadIsV3FullWithoutMode(t *testing.T) {
	for _, m := range append(sampleMessages(), channelMessages()...) {
		fields := len(appendEventFields(nil, m))
		v3 := AppendMessage(nil, m)
		if v3[fields] != clockFull {
			t.Fatalf("%v: v3 mode byte %d, want full", m, v3[fields])
		}
		want := append(v3[:fields:fields], v3[fields+1:]...)
		if got := wirev2.AppendMessage(nil, m); !bytes.Equal(got, want) {
			t.Fatalf("%v: v2 payload\n got %x\nwant %x", m, got, want)
		}
	}
}

// Package wirev2 writes sessions in wire protocol version 2: a full
// vector clock in every message frame, with no clock mode byte and no
// deltas. Receivers still decode v2, so old captures and old clients
// keep working, but no production sender writes it. Tests use this
// package to produce v2 input. It is part of the test-support tree.
//
// The encoding is written out here rather than borrowed from package
// wire, so wire's own tests can import it and its bytes check wire's
// decoder from outside. Every frame is
//
//	magic(0xA7) | kind(1B) | seq uvarint | len uvarint | crc32c(4B LE) | payload
//
// where seq counts the session's frames from 1 and the CRC32C
// (Castagnoli) covers kind, seq, len and payload.
package wirev2

import (
	"bufio"
	"encoding/binary"
	"hash/crc32"
	"io"

	"gompax/internal/event"
	"gompax/internal/logic"
)

// version opens a v2 Hello payload; magic opens every frame.
const (
	version = 2
	magic   = 0xA7
)

// Frame kinds, numbered as wire.FrameKind numbers them.
const (
	kindHello      = 1
	kindMessage    = 2
	kindThreadDone = 3
	kindBye        = 4
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Sender writes one v2 session to a stream. It is not safe for
// concurrent use.
type Sender struct {
	w   *bufio.Writer
	buf []byte
	hdr []byte
	seq uint64
}

// NewSender returns a sender that writes to w.
func NewSender(w io.Writer) *Sender { return &Sender{w: bufio.NewWriter(w)} }

func (s *Sender) frame(kind byte, payload []byte) error {
	s.seq++
	s.hdr = append(s.hdr[:0], magic, kind)
	s.hdr = binary.AppendUvarint(s.hdr, s.seq)
	s.hdr = binary.AppendUvarint(s.hdr, uint64(len(payload)))
	crc := crc32.Update(0, castagnoli, s.hdr[1:])
	crc = crc32.Update(crc, castagnoli, payload)
	s.hdr = binary.LittleEndian.AppendUint32(s.hdr, crc)
	if _, err := s.w.Write(s.hdr); err != nil {
		return err
	}
	_, err := s.w.Write(payload)
	return err
}

// SendHello opens the session: the version byte, the thread count,
// and the initial state's variables in sorted order, each as a
// length-prefixed name and a zigzag varint value.
func (s *Sender) SendHello(threads int, initial logic.State) error {
	b := append(s.buf[:0], version)
	b = binary.AppendUvarint(b, uint64(threads))
	vars := initial.Vars()
	b = binary.AppendUvarint(b, uint64(len(vars)))
	for _, name := range vars {
		b = binary.AppendUvarint(b, uint64(len(name)))
		b = append(b, name...)
		v, _ := initial.Lookup(name)
		b = binary.AppendVarint(b, v)
	}
	s.buf = b
	return s.frame(kindHello, b)
}

// SendMessage writes one observer message <e, i, V>.
func (s *Sender) SendMessage(m event.Message) error {
	s.buf = AppendMessage(s.buf[:0], m)
	return s.frame(kindMessage, s.buf)
}

// SendThreadDone announces that a thread has halted.
func (s *Sender) SendThreadDone(thread int) error {
	s.buf = binary.AppendUvarint(s.buf[:0], uint64(thread))
	return s.frame(kindThreadDone, s.buf)
}

// SendBye closes the session and flushes it.
func (s *Sender) SendBye() error {
	if err := s.frame(kindBye, nil); err != nil {
		return err
	}
	return s.w.Flush()
}

// AppendMessage appends the v2 payload of m to buf: the event's kind,
// thread, index, seq, relevance byte, length-prefixed variable and
// zigzag value (channel events add their FIFO slot and length-prefixed
// detail), then the clock as a component count and the components.
func AppendMessage(buf []byte, m event.Message) []byte {
	e := m.Event
	buf = append(buf, byte(e.Kind))
	buf = binary.AppendUvarint(buf, uint64(e.Thread))
	buf = binary.AppendUvarint(buf, e.Index)
	buf = binary.AppendUvarint(buf, e.Seq)
	if e.Relevant {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.AppendUvarint(buf, uint64(len(e.Var)))
	buf = append(buf, e.Var...)
	buf = binary.AppendVarint(buf, e.Value)
	if e.Kind.IsChannel() {
		buf = binary.AppendUvarint(buf, e.Slot)
		buf = binary.AppendUvarint(buf, uint64(len(e.Aux)))
		buf = append(buf, e.Aux...)
	}
	n := m.Clock.Len()
	buf = binary.AppendUvarint(buf, uint64(n))
	for i := 0; i < n; i++ {
		buf = binary.AppendUvarint(buf, m.Clock.Get(i))
	}
	return buf
}

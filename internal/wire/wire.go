// Package wire serializes the instrumentation's observer messages.
// JMPaX sends <e, i, V> messages over a socket from the instrumented
// JVM to the external observer (Fig. 4); this package provides the
// equivalent: a compact length-prefixed binary codec, frame types for
// session setup (initial state of the relevant variables) and
// per-thread completion, stream senders/receivers over any
// io.Writer/io.Reader (including TCP), and simulators for the two
// fault classes the observer must tolerate: reordering (Scramble,
// §2.2) and byte-level damage (FaultWriter).
//
// # Wire format
//
// Every frame is
//
//	magic(0xA7) | kind(1B) | seq uvarint | len uvarint | crc32c(4B LE) | payload
//
// where seq is a per-channel sequence number starting at 1 and the
// CRC32C (Castagnoli) covers kind, seq, len and payload. The Hello
// payload additionally opens with a protocol version byte. The magic
// byte gives a Receiver in resync mode a boundary to scan for after a
// corrupt frame; the checksum rejects damaged frames; the sequence
// numbers expose gaps (lost frames) and duplicates, reported in
// SessionStats.
//
// # Clock encoding (protocol versions)
//
// Version 2 message frames carry the full vector clock of every
// message: uvarint component count followed by the components.
// Version 3 prefixes the clock with a mode byte and adds a delta mode:
// because a thread's message clocks are pointwise monotone (each
// message's clock dominates the thread's previous one — Algorithm A
// only ticks and joins), a v3 sender usually encodes only the
// components that changed since the thread's previous message on the
// channel, as (index-gap, increment) pairs, chained to the previous
// clock by the thread's own component value. Every deltaRefresh-th
// message per thread is sent with a full clock so a resync receiver
// that discarded frames regains its footing; a delta frame whose
// chain check fails (its predecessor was lost or corrupted) counts as
// a corrupt frame and is skipped until the next full clock arrives.
// Receivers decode either version, selected by the Hello; senders
// default to 3 and can be pinned to 2 for old peers (NewSenderV2).
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"

	"gompax/internal/clock"
	"gompax/internal/event"
	"gompax/internal/logic"
)

// FrameKind tags a frame on the wire.
type FrameKind uint8

const (
	// FrameHello opens a session: thread count and initial state.
	FrameHello FrameKind = 1
	// FrameMessage carries one observer message <e, i, V>.
	FrameMessage FrameKind = 2
	// FrameThreadDone announces that a thread has halted (its event
	// stream is complete), enabling fully online lattice expansion.
	FrameThreadDone FrameKind = 3
	// FrameBye closes the session.
	FrameBye FrameKind = 4
)

func (k FrameKind) String() string {
	switch k {
	case FrameHello:
		return "hello"
	case FrameMessage:
		return "message"
	case FrameThreadDone:
		return "thread-done"
	case FrameBye:
		return "bye"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ProtocolVersion is the current wire protocol version carried in
// every Hello. Version 3 adds delta-encoded clocks; version 2 (full
// clocks only) is still accepted by receivers.
const ProtocolVersion = 3

// ProtocolVersionV2 is the previous protocol version, kept encodable
// (NewSenderV2) and decodable so old captures and old clients keep
// working against new observers.
const ProtocolVersionV2 = 2

// Clock encoding modes inside a v3 message payload.
const (
	clockFull  = 0 // uvarint count + components
	clockDelta = 1 // uvarint prevOwn + uvarint count + (gap, increment) pairs
)

// deltaRefresh bounds how much a resync receiver can lose after a
// broken delta chain: every deltaRefresh-th message of a thread is
// sent with a full clock even when a delta would be smaller.
const deltaRefresh = 32

// frameMagic opens every frame; resync scans for it after corruption.
const frameMagic = 0xA7

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// MaxThreads bounds the thread count a Hello may announce. The
// observer sizes its per-thread state from the count before any message
// arrives, so an unchecked count from a peer could exhaust the
// observer's memory; decoding rejects a count below 1 or above this
// bound as a malformed frame. It is 64x the largest program in use
// (progs.DeepFanIn at 1,024 threads). A receiver bounds each decoded
// clock's length by the Hello's thread count, and by MaxThreads before
// a Hello arrives and in the stateless DecodeMessage.
const MaxThreads = 1 << 16

// Hello is the session-opening frame payload.
type Hello struct {
	Threads int
	Initial logic.State
	// Version is the protocol version negotiated for the session
	// (filled on decode; ignored on send — the Sender writes its own).
	Version int
}

// Frame is a decoded wire frame. Msg is a value, not a pointer: the
// receiver decodes straight into it, so delivering a message frame
// allocates nothing beyond the interned clock node (and not even that
// when the value was seen before).
type Frame struct {
	Kind   FrameKind
	Seq    uint64 // per-channel sequence number (1-based)
	Hello  *Hello
	Msg    event.Message // valid iff Kind == FrameMessage
	Thread int           // FrameThreadDone
}

// maxFrameLen guards against corrupt length prefixes.
const maxFrameLen = 1 << 24

func getUvarint(buf []byte) (uint64, int, error) {
	v, n := binary.Uvarint(buf)
	if n == 0 {
		return 0, 0, ErrTruncated
	}
	if n < 0 {
		return 0, 0, ErrBadVarint
	}
	return v, n, nil
}

func getVarint(buf []byte) (int64, int, error) {
	v, n := binary.Varint(buf)
	if n == 0 {
		return 0, 0, ErrTruncated
	}
	if n < 0 {
		return 0, 0, ErrBadVarint
	}
	return v, n, nil
}

func msgErr(off int, field string, err error) error {
	return &FrameError{Kind: FrameMessage, Offset: int64(off), Field: field, Err: err}
}

// appendEventFields encodes the event portion of a message, shared by
// both protocol versions. Channel events additionally carry their FIFO
// slot and auxiliary detail after the value; the extension is keyed on
// the event kind byte rather than a frame version, so a stream without
// channel events is byte-identical to what pre-channel senders wrote,
// and old captures (which contain no channel kinds) decode unchanged.
func appendEventFields(buf []byte, m event.Message) []byte {
	buf = append(buf, byte(m.Event.Kind))
	buf = binary.AppendUvarint(buf, uint64(m.Event.Thread))
	buf = binary.AppendUvarint(buf, m.Event.Index)
	buf = binary.AppendUvarint(buf, m.Event.Seq)
	if m.Event.Relevant {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.AppendUvarint(buf, uint64(len(m.Event.Var)))
	buf = append(buf, m.Event.Var...)
	buf = binary.AppendVarint(buf, m.Event.Value)
	if m.Event.Kind.IsChannel() {
		buf = binary.AppendUvarint(buf, m.Event.Slot)
		buf = binary.AppendUvarint(buf, uint64(len(m.Event.Aux)))
		buf = append(buf, m.Event.Aux...)
	}
	return buf
}

// appendClockFull encodes a full clock: uvarint component count
// followed by the components. This is the entire clock encoding of
// protocol v2 and the full mode of v3.
func appendClockFull(buf []byte, r clock.Ref) []byte {
	n := r.Len()
	buf = binary.AppendUvarint(buf, uint64(n))
	for i := 0; i < n; i++ {
		buf = binary.AppendUvarint(buf, r.Get(i))
	}
	return buf
}

// AppendMessage encodes an observer message (without framing) in
// protocol v3 with a full clock — the stateless form, decodable
// without stream context. Senders use the stateful delta form.
func AppendMessage(buf []byte, m event.Message) []byte {
	buf = appendEventFields(buf, m)
	buf = append(buf, clockFull)
	return appendClockFull(buf, m.Clock)
}

// AppendMessageV2 encodes an observer message in legacy protocol v2
// (full clock, no mode byte), byte-identical to what a v2 sender
// produces. It exists for cross-version tests and for writing captures
// an old observer can replay.
func AppendMessageV2(buf []byte, m event.Message) []byte {
	buf = appendEventFields(buf, m)
	return appendClockFull(buf, m.Clock)
}

// decodeEventFields decodes the event portion of a message, returning
// the offset where the clock encoding starts.
func decodeEventFields(buf []byte) (event.Message, int, error) {
	var m event.Message
	if len(buf) < 1 {
		return m, 0, msgErr(0, "kind", ErrTruncated)
	}
	m.Event.Kind = event.Kind(buf[0])
	off := 1
	u, n, err := getUvarint(buf[off:])
	if err != nil {
		return m, 0, msgErr(off, "thread", err)
	}
	m.Event.Thread = int(u)
	off += n
	if m.Event.Index, n, err = getUvarint(buf[off:]); err != nil {
		return m, 0, msgErr(off, "index", err)
	}
	off += n
	if m.Event.Seq, n, err = getUvarint(buf[off:]); err != nil {
		return m, 0, msgErr(off, "seq", err)
	}
	off += n
	if off >= len(buf) {
		return m, 0, msgErr(off, "relevant", ErrTruncated)
	}
	m.Event.Relevant = buf[off] == 1
	off++
	nameLen, n, err := getUvarint(buf[off:])
	if err != nil {
		return m, 0, msgErr(off, "var length", err)
	}
	if nameLen > maxFrameLen {
		return m, 0, msgErr(off, "var length", ErrBadLength)
	}
	off += n
	if off+int(nameLen) > len(buf) {
		return m, 0, msgErr(off, "var", ErrTruncated)
	}
	m.Event.Var = string(buf[off : off+int(nameLen)])
	off += int(nameLen)
	v, n, err := getVarint(buf[off:])
	if err != nil {
		return m, 0, msgErr(off, "value", err)
	}
	m.Event.Value = v
	off += n
	if m.Event.Kind.IsChannel() {
		if m.Event.Slot, n, err = getUvarint(buf[off:]); err != nil {
			return m, 0, msgErr(off, "slot", err)
		}
		off += n
		auxLen, n, err := getUvarint(buf[off:])
		if err != nil {
			return m, 0, msgErr(off, "aux length", err)
		}
		if auxLen > maxFrameLen {
			return m, 0, msgErr(off, "aux length", ErrBadLength)
		}
		off += n
		if off+int(auxLen) > len(buf) {
			return m, 0, msgErr(off, "aux", ErrTruncated)
		}
		m.Event.Aux = string(buf[off : off+int(auxLen)])
		off += int(auxLen)
	}
	return m, off, nil
}

// decodeClockFull decodes a full clock of at most limit components
// into scratch (reused across calls), returning the components and the
// bytes consumed. A longer count fails with ErrBadLength before
// anything is allocated.
func decodeClockFull(buf []byte, off int, scratch []uint64, limit int) (comps []uint64, n int, err error) {
	count, cn, err := getUvarint(buf[off:])
	if err != nil {
		return nil, 0, msgErr(off, "clock length", err)
	}
	if count > uint64(limit) {
		return nil, 0, msgErr(off, "clock length", ErrBadLength)
	}
	pos := off + cn
	if cap(scratch) < int(count) {
		scratch = make([]uint64, count)
	}
	scratch = scratch[:count]
	for i := range scratch {
		x, xn, err := getUvarint(buf[pos:])
		if err != nil {
			return nil, 0, msgErr(pos, "clock component", err)
		}
		scratch[i] = x
		pos += xn
	}
	return scratch, pos - off, nil
}

// DecodeMessage decodes a protocol v3 message produced by
// AppendMessage, returning the bytes consumed. Delta-mode clocks need
// the per-thread stream state a Receiver carries and are rejected here
// with ErrDeltaContext. Failures are *FrameError values wrapping the
// package sentinels, with Offset relative to the start of buf. The
// clock is interned into the process-wide table; receivers intern
// theirs nowhere.
func DecodeMessage(buf []byte) (event.Message, int, error) {
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
		m.Clock = clock.Global().Intern(comps)
		return m, off + n, nil
	case clockDelta:
		return m, 0, msgErr(off-1, "clock mode", ErrDeltaContext)
	default:
		return m, 0, msgErr(off-1, "clock mode", ErrBadClockMode)
	}
}

// DecodeMessageV2 decodes a legacy protocol v2 message produced by
// AppendMessageV2, returning the bytes consumed.
func DecodeMessageV2(buf []byte) (event.Message, int, error) {
	m, off, err := decodeEventFields(buf)
	if err != nil {
		return m, 0, err
	}
	comps, n, err := decodeClockFull(buf, off, nil, MaxThreads)
	if err != nil {
		return m, 0, err
	}
	m.Clock = clock.Global().Intern(comps)
	return m, off + n, nil
}

func appendHello(buf []byte, h Hello, version byte) []byte {
	buf = append(buf, version)
	buf = binary.AppendUvarint(buf, uint64(h.Threads))
	vars := h.Initial.Vars()
	buf = binary.AppendUvarint(buf, uint64(len(vars)))
	for _, name := range vars {
		buf = binary.AppendUvarint(buf, uint64(len(name)))
		buf = append(buf, name...)
		v, _ := h.Initial.Lookup(name)
		buf = binary.AppendVarint(buf, v)
	}
	return buf
}

func helloErr(off int, field string, err error) error {
	return &FrameError{Kind: FrameHello, Offset: int64(off), Field: field, Err: err}
}

func decodeHello(buf []byte) (Hello, error) {
	var h Hello
	if len(buf) < 1 {
		return h, helloErr(0, "version", ErrTruncated)
	}
	if buf[0] != ProtocolVersion && buf[0] != ProtocolVersionV2 {
		return h, helloErr(0, "version", fmt.Errorf("%w: got %d, want %d or %d", ErrVersion, buf[0], ProtocolVersionV2, ProtocolVersion))
	}
	h.Version = int(buf[0])
	off := 1
	u, n, err := getUvarint(buf[off:])
	if err != nil {
		return h, helloErr(off, "threads", err)
	}
	if u < 1 || u > MaxThreads {
		return h, helloErr(off, "threads", fmt.Errorf("%w: %d threads, want 1..%d", ErrBadLength, u, MaxThreads))
	}
	h.Threads = int(u)
	off += n
	count, n, err := getUvarint(buf[off:])
	if err != nil {
		return h, helloErr(off, "var count", err)
	}
	if count > maxFrameLen {
		return h, helloErr(off, "var count", ErrBadLength)
	}
	off += n
	m := map[string]int64{}
	for i := uint64(0); i < count; i++ {
		nameLen, n, err := getUvarint(buf[off:])
		if err != nil {
			return h, helloErr(off, "var length", err)
		}
		if nameLen > maxFrameLen {
			return h, helloErr(off, "var length", ErrBadLength)
		}
		off += n
		if off+int(nameLen) > len(buf) {
			return h, helloErr(off, "var", ErrTruncated)
		}
		name := string(buf[off : off+int(nameLen)])
		off += int(nameLen)
		v, n, err := getVarint(buf[off:])
		if err != nil {
			return h, helloErr(off, "value", err)
		}
		off += n
		m[name] = v
	}
	h.Initial = logic.StateFromMap(m)
	return h, nil
}

// Sender writes frames to a stream. It is not safe for concurrent use;
// give each thread channel its own Sender (that is the multi-channel
// deployment the paper mentions). Each Sender numbers its frames with
// its own sequence counter: one Sender = one wire channel.
//
// A v3 sender keeps, per thread, the clock of that thread's previous
// message on this channel and delta-encodes against it, refreshing
// with a full clock every deltaRefresh messages.
type Sender struct {
	w       *bufio.Writer
	buf     []byte
	hdr     []byte
	seq     uint64
	version int
	prev    map[int]clock.Ref // thread -> clock of its previous message
	fresh   map[int]int       // thread -> messages since last full clock
	dIdx    []int             // delta scratch: changed component indexes
	dInc    []uint64          // delta scratch: increments
}

// NewSender wraps a writer in the current protocol version.
func NewSender(w io.Writer) *Sender {
	return &Sender{
		w:       bufio.NewWriter(w),
		version: ProtocolVersion,
		prev:    map[int]clock.Ref{},
		fresh:   map[int]int{},
	}
}

// NewSenderV2 wraps a writer pinned to legacy protocol v2 (full clock
// per message): the shape of an old client talking to a new observer.
func NewSenderV2(w io.Writer) *Sender {
	s := NewSender(w)
	s.version = ProtocolVersionV2
	return s
}

func (s *Sender) frame(kind FrameKind, payload []byte) error {
	s.seq++
	sentByKind[kind].Inc()
	s.hdr = append(s.hdr[:0], frameMagic, byte(kind))
	s.hdr = binary.AppendUvarint(s.hdr, s.seq)
	s.hdr = binary.AppendUvarint(s.hdr, uint64(len(payload)))
	crc := crc32.Update(0, castagnoli, s.hdr[1:]) // kind, seq, len
	crc = crc32.Update(crc, castagnoli, payload)
	var cb [4]byte
	binary.LittleEndian.PutUint32(cb[:], crc)
	if _, err := s.w.Write(s.hdr); err != nil {
		return err
	}
	if _, err := s.w.Write(cb[:]); err != nil {
		return err
	}
	_, err := s.w.Write(payload)
	return err
}

// SendHello opens the session, announcing the sender's protocol
// version.
func (s *Sender) SendHello(h Hello) error {
	s.buf = appendHello(s.buf[:0], h, byte(s.version))
	return s.frame(FrameHello, s.buf)
}

// SendMessage emits one observer message. In v3 the clock is delta
// encoded against the thread's previous message whenever the chain
// allows it and a refresh is not due.
func (s *Sender) SendMessage(m event.Message) error {
	if s.version == ProtocolVersionV2 {
		s.buf = AppendMessageV2(s.buf[:0], m)
		return s.frame(FrameMessage, s.buf)
	}
	thread := m.Event.Thread
	prev, chained := s.prev[thread]
	if chained && s.fresh[thread] < deltaRefresh-1 && s.tryDelta(prev, m) {
		s.fresh[thread]++
	} else {
		s.buf = AppendMessage(s.buf[:0], m)
		s.fresh[thread] = 0
	}
	s.prev[thread] = m.Clock
	return s.frame(FrameMessage, s.buf)
}

// tryDelta encodes m with a delta clock against prev into s.buf and
// reports whether it succeeded; it fails only when m.Clock does not
// dominate prev (which Algorithm A never produces, but arbitrary
// callers can).
func (s *Sender) tryDelta(prev clock.Ref, m event.Message) bool {
	s.dIdx, s.dInc = s.dIdx[:0], s.dInc[:0]
	ok := clock.Diff(prev, m.Clock, func(i int, inc uint64) {
		s.dIdx = append(s.dIdx, i)
		s.dInc = append(s.dInc, inc)
	})
	if !ok {
		return false
	}
	buf := appendEventFields(s.buf[:0], m)
	buf = append(buf, clockDelta)
	buf = binary.AppendUvarint(buf, prev.Get(m.Event.Thread))
	buf = binary.AppendUvarint(buf, uint64(len(s.dIdx)))
	last := 0
	for k, i := range s.dIdx {
		gap := i - last
		if k == 0 {
			gap = i
		}
		buf = binary.AppendUvarint(buf, uint64(gap))
		buf = binary.AppendUvarint(buf, s.dInc[k])
		last = i + 1
	}
	s.buf = buf
	return true
}

// SendThreadDone announces a completed thread.
func (s *Sender) SendThreadDone(thread int) error {
	s.buf = binary.AppendUvarint(s.buf[:0], uint64(thread))
	return s.frame(FrameThreadDone, s.buf)
}

// SendBye closes the session (and flushes).
func (s *Sender) SendBye() error {
	if err := s.frame(FrameBye, nil); err != nil {
		return err
	}
	return s.w.Flush()
}

// Flush flushes buffered frames.
func (s *Sender) Flush() error { return s.w.Flush() }

// SessionStats reports the wire-level health of one channel, the raw
// material of the observer's degradation report.
type SessionStats struct {
	// Frames counts valid frames delivered to the caller.
	Frames int
	// CorruptFrames counts frame candidates whose checksum or payload
	// failed to validate (resync mode only; strict mode errors instead).
	CorruptFrames int
	// SkippedBytes counts bytes scanned past while searching for the
	// next valid frame boundary (resync mode only).
	SkippedBytes int64
	// Gaps counts sequence numbers never seen: frames known to be lost
	// in the middle of the stream. Tail losses are only observable as a
	// missing Bye.
	Gaps int
	// Duplicates counts valid frames dropped because their sequence
	// number had already been delivered.
	Duplicates int
}

// Lossy reports whether the channel saw any fault at all.
func (s SessionStats) Lossy() bool {
	return s.CorruptFrames > 0 || s.SkippedBytes > 0 || s.Gaps > 0 || s.Duplicates > 0
}

func (s SessionStats) String() string {
	return fmt.Sprintf("frames=%d corrupt=%d skipped=%dB gaps=%d dups=%d",
		s.Frames, s.CorruptFrames, s.SkippedBytes, s.Gaps, s.Duplicates)
}

// Receiver reads frames from a stream.
//
// In strict mode (NewReceiver) any framing or checksum failure is
// returned as a *FrameError and the stream should be abandoned. In
// resync mode (NewResyncReceiver) the receiver instead scans forward
// to the next valid frame boundary, counts what it had to discard in
// SessionStats, silently drops duplicate frames, and keeps going —
// Next only returns frames that passed the checksum.
type Receiver struct {
	r          io.Reader
	buf        []byte
	start, end int
	off        int64 // absolute stream offset of buf[start]
	eof        bool
	resync     bool
	sawBye     bool

	stats   SessionStats
	maxSeq  uint64
	missing map[uint64]struct{}

	// Clock decoding state. version is what the Hello announced (until
	// one arrives, the current version is assumed). threads bounds every
	// decoded clock's length: the Hello's thread count once one was
	// delivered, MaxThreads before, so a peer cannot make the session
	// hold clocks naming threads it never announced. Decoded clocks are
	// interned nowhere (clock.New): by Theorem 3 no two messages of a
	// session carry equal clocks, so a session table would never hit.
	// last holds, per thread, the clock of the last *delivered*
	// message — the base a v3 delta chains to. It is committed only on
	// delivery (in Next), never during candidate parsing, so corrupt or
	// duplicate frames cannot poison the chain.
	version    int
	threads    int
	last       map[int]clock.Ref
	clkScratch []uint64

	// snap is the stats snapshot published at the end of each Next
	// call, so Stats and SawBye stay safe to call while another
	// goroutine is blocked inside Next (e.g. after an idle-timeout
	// abandons the channel mid-read).
	snapMu     sync.Mutex
	snap       SessionStats
	snapSawBye bool

	// Telemetry bookkeeping: the stats state as of the last publish
	// (for delta flushes) and monotone gap tallies.
	flushed           SessionStats
	gapsOpened        uint64
	gapsFilled        uint64
	flushedGapsOpened uint64
	flushedGapsFilled uint64
	flushedOpenGaps   int
}

// NewReceiver wraps a reader in strict mode: corruption is an error.
func NewReceiver(r io.Reader) *Receiver {
	return &Receiver{
		r:       r,
		missing: map[uint64]struct{}{},
		version: ProtocolVersion,
		threads: MaxThreads,
		last:    map[int]clock.Ref{},
	}
}

// NewResyncReceiver wraps a reader in resync mode: corruption is
// skipped and accounted for in Stats.
func NewResyncReceiver(r io.Reader) *Receiver {
	rc := NewReceiver(r)
	rc.resync = true
	return rc
}

// Stats returns a snapshot of the channel's wire-level statistics as
// of the last completed Next call. Safe to call concurrently with a
// blocked Next.
func (r *Receiver) Stats() SessionStats {
	r.snapMu.Lock()
	defer r.snapMu.Unlock()
	return r.snap
}

// SawBye reports whether the session was closed by an explicit Bye
// frame (as opposed to the stream just ending). Like Stats it reflects
// the last completed Next call.
func (r *Receiver) SawBye() bool {
	r.snapMu.Lock()
	defer r.snapMu.Unlock()
	return r.snapSawBye
}

// SetReadDeadline sets the read deadline of the underlying transport
// (a net.Conn, net.Pipe or os.File pipe) and fails with
// os.ErrNoDeadline when the transport has none. A Next that fails on
// the deadline loses nothing: the bytes it read stay buffered, and once
// the deadline is extended Next resumes where it stopped. Safe to call
// concurrently with a blocked Next when the transport's
// SetReadDeadline is, as net.Conn's is.
func (r *Receiver) SetReadDeadline(t time.Time) error {
	if d, ok := r.r.(interface{ SetReadDeadline(time.Time) error }); ok {
		return d.SetReadDeadline(t)
	}
	return os.ErrNoDeadline
}

// publish copies the live counters into the concurrent-read snapshot
// and flushes their deltas into the process-wide wire metrics — one
// batched flush per completed Next call, whatever the fault density.
func (r *Receiver) publish() {
	r.snapMu.Lock()
	r.snap = r.stats
	r.snap.Gaps = len(r.missing)
	r.snapSawBye = r.sawBye
	r.snapMu.Unlock()

	mCorrupt.Add(uint64(r.stats.CorruptFrames - r.flushed.CorruptFrames))
	mSkipped.Add(uint64(r.stats.SkippedBytes - r.flushed.SkippedBytes))
	mDuplicates.Add(uint64(r.stats.Duplicates - r.flushed.Duplicates))
	mGapsOpened.Add(r.gapsOpened - r.flushedGapsOpened)
	mGapsFilled.Add(r.gapsFilled - r.flushedGapsFilled)
	mOpenGaps.Add(int64(len(r.missing) - r.flushedOpenGaps))
	r.flushed = r.stats
	r.flushedGapsOpened = r.gapsOpened
	r.flushedGapsFilled = r.gapsFilled
	r.flushedOpenGaps = len(r.missing)
}

// ErrClosed is returned by Next after a Bye frame.
var ErrClosed = errors.New("wire: session closed")

// fill blocks until at least n bytes are buffered, returning io.EOF if
// the stream ends first. It never reads further than it must.
func (r *Receiver) fill(n int) error {
	for r.end-r.start < n {
		if r.eof {
			return io.EOF
		}
		if r.start+n > len(r.buf) {
			// Compact, then grow if the window is still too small.
			copy(r.buf, r.buf[r.start:r.end])
			r.end -= r.start
			r.start = 0
			if n > len(r.buf) {
				grown := make([]byte, max(n, 2*len(r.buf), 4096))
				copy(grown, r.buf[:r.end])
				r.buf = grown
			}
		}
		m, err := r.r.Read(r.buf[r.end:])
		r.end += m
		if err == io.EOF {
			r.eof = true
		} else if err != nil {
			return err
		}
	}
	return nil
}

// skip consumes n buffered bytes.
func (r *Receiver) skip(n int) {
	r.start += n
	r.off += int64(n)
	if r.start == r.end {
		r.start, r.end = 0, 0
	}
}

// uvarint parses a uvarint at offset rel from the window start,
// filling as needed. io.EOF means the stream tore mid-varint.
func (r *Receiver) uvarint(rel int) (uint64, int, error) {
	for {
		v, n := binary.Uvarint(r.buf[r.start+rel : r.end])
		if n > 0 {
			return v, n, nil
		}
		if n < 0 {
			return 0, 0, ErrBadVarint
		}
		if err := r.fill(r.end - r.start + 1); err != nil {
			return 0, 0, err
		}
	}
}

// frameErr builds a strict-mode error at the current stream offset.
// Genuine I/O errors (anything but EOF and the decode sentinels) pass
// through unwrapped so resync mode does not try to scan past them.
func (r *Receiver) frameErr(kind FrameKind, rel int, field string, err error) error {
	if err == io.EOF {
		err = ErrTruncated
	} else if !errors.Is(err, ErrBadFrame) {
		return err
	}
	return &FrameError{Kind: kind, Offset: r.off + int64(rel), Field: field, Err: err}
}

// Next reads the next frame. After FrameBye it returns ErrClosed; at
// the end of the stream it returns io.EOF (or ErrClosed if a Bye was
// seen). In resync mode corrupt stretches are skipped, not returned.
func (r *Receiver) Next() (Frame, error) {
	defer r.publish()
	for {
		if err := r.fill(1); err != nil {
			if err == io.EOF {
				if r.sawBye {
					return Frame{}, ErrClosed
				}
				return Frame{}, io.EOF
			}
			return Frame{}, err
		}
		if r.buf[r.start] != frameMagic {
			if r.resync {
				r.skip(1)
				r.stats.SkippedBytes++
				continue
			}
			return Frame{}, r.frameErr(0, 0, "magic", ErrBadMagic)
		}
		f, payload, size, corrupt, err := r.parseCandidate()
		if err != nil {
			if !r.resync {
				return Frame{}, err
			}
			// Only genuine I/O errors abort resync mode; frameErr
			// leaves those unwrapped.
			var fe *FrameError
			if !errors.As(err, &fe) {
				return Frame{}, err
			}
			if corrupt {
				r.stats.CorruptFrames++
			}
			r.skip(1)
			r.stats.SkippedBytes++
			continue
		}
		// Sequence bookkeeping: expose gaps, drop duplicates.
		switch {
		case f.Seq == r.maxSeq+1:
			r.maxSeq = f.Seq
		case f.Seq > r.maxSeq+1:
			for s := r.maxSeq + 1; s < f.Seq; s++ {
				r.missing[s] = struct{}{}
				r.gapsOpened++
			}
			r.maxSeq = f.Seq
		default: // f.Seq <= r.maxSeq: late gap-filler or duplicate
			if _, gap := r.missing[f.Seq]; gap {
				delete(r.missing, f.Seq)
				r.gapsFilled++
			} else {
				r.stats.Duplicates++
				r.skip(size)
				continue
			}
		}
		if f.Kind == FrameMessage {
			// Decode the payload only after the duplicate check, so a
			// duplicated delta frame counts as a duplicate — never as a
			// corrupt frame, and never against the delta chain. The
			// frame's CRC already validated, so a decode failure here
			// (broken delta chain, malformed clock) condemns this frame
			// alone: skip it whole rather than rescanning byte by byte.
			m, merr := r.decodeMessage(payload)
			if merr != nil {
				merr = r.wrapPayloadErr(merr, size-len(payload))
				if !r.resync {
					return Frame{}, merr
				}
				r.stats.CorruptFrames++
				r.skip(size)
				continue
			}
			f.Msg = m
		}
		r.skip(size)
		r.stats.Frames++
		recvByKind[f.Kind].Inc()
		switch f.Kind {
		case FrameBye:
			r.sawBye = true
			return f, ErrClosed
		case FrameHello:
			r.version = f.Hello.Version
			r.threads = f.Hello.Threads
		case FrameMessage:
			// Commit the delta base only on delivery: a rejected frame
			// never advances the chain.
			r.last[f.Msg.Event.Thread] = f.Msg.Clock
		}
		return f, nil
	}
}

// parseCandidate parses a frame at the window start (which holds the
// magic byte). It consumes nothing; on success it returns the frame,
// its payload slice (valid until the next fill/skip) and its total
// encoded size. corrupt marks failures where a complete candidate was
// read but its checksum or payload did not validate — resync mode
// counts those as CorruptFrames rather than stray bytes. Message
// payloads are NOT decoded here: delta-encoded clocks consult the
// delivery chain state, so Next decodes them only after the frame
// passed sequence deduplication.
func (r *Receiver) parseCandidate() (f Frame, payload []byte, size int, corrupt bool, err error) {
	if err := r.fill(2); err != nil {
		return Frame{}, nil, 0, false, r.frameErr(0, 1, "kind", err)
	}
	kind := FrameKind(r.buf[r.start+1])
	if kind < FrameHello || kind > FrameBye {
		return Frame{}, nil, 0, false, r.frameErr(kind, 1, "kind", ErrUnknownKind)
	}
	seq, sn, err := r.uvarint(2)
	if err != nil {
		return Frame{}, nil, 0, false, r.frameErr(kind, 2, "seq", err)
	}
	lenOff := 2 + sn
	plen, ln, err := r.uvarint(lenOff)
	if err != nil {
		return Frame{}, nil, 0, false, r.frameErr(kind, lenOff, "length", err)
	}
	if plen > maxFrameLen {
		return Frame{}, nil, 0, false, r.frameErr(kind, lenOff, "length", ErrBadLength)
	}
	crcOff := lenOff + ln
	size = crcOff + 4 + int(plen)
	if err := r.fill(size); err != nil {
		return Frame{}, nil, 0, false, r.frameErr(kind, r.end-r.start, "payload", err)
	}
	head := r.buf[r.start+1 : r.start+crcOff]
	payload = r.buf[r.start+crcOff+4 : r.start+size]
	want := binary.LittleEndian.Uint32(r.buf[r.start+crcOff:])
	got := crc32.Update(0, castagnoli, head)
	got = crc32.Update(got, castagnoli, payload)
	if got != want {
		return Frame{}, nil, 0, true, r.frameErr(kind, crcOff, "checksum", ErrBadChecksum)
	}
	f = Frame{Kind: kind, Seq: seq}
	switch kind {
	case FrameHello:
		h, err := decodeHello(payload)
		if err != nil {
			return Frame{}, nil, 0, true, r.wrapPayloadErr(err, crcOff+4)
		}
		f.Hello = &h
	case FrameMessage:
		// Deferred to Next (see above).
	case FrameThreadDone:
		u, _, err := getUvarint(payload)
		if err != nil {
			return Frame{}, nil, 0, true, r.frameErr(kind, crcOff+4, "thread", err)
		}
		f.Thread = int(u)
	case FrameBye:
	}
	return f, payload, size, false, nil
}

// decodeMessage decodes a message payload under the session's
// negotiated protocol version, building the clock in no table. Delta
// clocks are applied against the last delivered message of the same
// thread; a broken chain (the predecessor was lost,
// corrupted, or this frame is a stale duplicate) fails with
// ErrDeltaChain, which resync mode counts as a corrupt frame — the
// thread's messages then skip until the sender's next full clock.
func (r *Receiver) decodeMessage(payload []byte) (event.Message, error) {
	m, off, err := decodeEventFields(payload)
	if err != nil {
		return m, err
	}
	if r.version == ProtocolVersionV2 {
		comps, _, err := decodeClockFull(payload, off, r.clkScratch, r.threads)
		if err != nil {
			return m, err
		}
		r.clkScratch = comps
		m.Clock = clock.New(comps)
		return m, nil
	}
	if off >= len(payload) {
		return m, msgErr(off, "clock mode", ErrTruncated)
	}
	mode := payload[off]
	off++
	switch mode {
	case clockFull:
		comps, _, err := decodeClockFull(payload, off, r.clkScratch, r.threads)
		if err != nil {
			return m, err
		}
		r.clkScratch = comps
		m.Clock = clock.New(comps)
		return m, nil
	case clockDelta:
		prevOwn, n, err := getUvarint(payload[off:])
		if err != nil {
			return m, msgErr(off, "clock delta base", err)
		}
		off += n
		prev := r.last[m.Event.Thread]
		if prev.Len() > r.threads {
			return m, msgErr(off, "clock delta base", ErrBadLength)
		}
		if prev.Get(m.Event.Thread) != prevOwn {
			return m, msgErr(off, "clock delta base", fmt.Errorf("%w: thread %d chained to own component %d, have %d",
				ErrDeltaChain, m.Event.Thread, prevOwn, prev.Get(m.Event.Thread)))
		}
		count, n, err := getUvarint(payload[off:])
		if err != nil {
			return m, msgErr(off, "clock delta count", err)
		}
		if count > uint64(r.threads) {
			return m, msgErr(off, "clock delta count", ErrBadLength)
		}
		off += n
		comps := r.clkScratch[:0]
		for i, pn := 0, prev.Len(); i < pn; i++ {
			comps = append(comps, prev.Get(i))
		}
		idx := -1
		for k := uint64(0); k < count; k++ {
			gap, n, err := getUvarint(payload[off:])
			if err != nil {
				return m, msgErr(off, "clock delta index", err)
			}
			off += n
			inc, n, err := getUvarint(payload[off:])
			if err != nil {
				return m, msgErr(off, "clock delta increment", err)
			}
			off += n
			// Checking gap first keeps idx from overflowing: both stay
			// below r.threads.
			if gap >= uint64(r.threads) {
				return m, msgErr(off, "clock delta index", ErrBadLength)
			}
			idx += int(gap) + 1
			if idx >= r.threads {
				return m, msgErr(off, "clock delta index", ErrBadLength)
			}
			for len(comps) <= idx {
				comps = append(comps, 0)
			}
			comps[idx] += inc
		}
		r.clkScratch = comps
		m.Clock = clock.New(comps)
		return m, nil
	default:
		return m, msgErr(off-1, "clock mode", ErrBadClockMode)
	}
}

// wrapPayloadErr lifts a payload-relative *FrameError to an absolute
// stream offset.
func (r *Receiver) wrapPayloadErr(err error, payloadOff int) error {
	var fe *FrameError
	if errors.As(err, &fe) {
		return &FrameError{Kind: fe.Kind, Offset: r.off + int64(payloadOff) + fe.Offset, Field: fe.Field, Err: fe.Err}
	}
	return err
}

// frameSize reports the total encoded size of the frame starting at
// buf[0]: (0, nil) when buf holds a valid but incomplete prefix, or an
// error when buf cannot start a frame. Used by FaultWriter to delimit
// frames in the byte stream it proxies.
func frameSize(buf []byte) (int, error) {
	if len(buf) == 0 {
		return 0, nil
	}
	if buf[0] != frameMagic {
		return 0, ErrBadMagic
	}
	if len(buf) < 2 {
		return 0, nil
	}
	off := 2
	_, n := binary.Uvarint(buf[off:])
	if n < 0 {
		return 0, ErrBadVarint
	}
	if n == 0 {
		return 0, nil
	}
	off += n
	plen, n := binary.Uvarint(buf[off:])
	if n < 0 {
		return 0, ErrBadVarint
	}
	if n == 0 {
		return 0, nil
	}
	if plen > maxFrameLen {
		return 0, ErrBadLength
	}
	off += n
	total := off + 4 + int(plen)
	if len(buf) < total {
		return 0, nil
	}
	return total, nil
}

// Scramble returns a random permutation of messages: the worst-case
// delivery reordering the observer must tolerate (§2.2 — the lattice
// reconstruction depends only on the clocks, never on arrival order).
func Scramble(msgs []event.Message, seed int64) []event.Message {
	out := append([]event.Message(nil), msgs...)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// SplitByThread partitions messages into per-thread FIFO channels,
// modelling the paper's "multiple channels to reduce the monitoring
// overhead": each channel preserves its thread's order while the
// channels interleave arbitrarily.
func SplitByThread(msgs []event.Message) map[int][]event.Message {
	out := map[int][]event.Message{}
	for _, m := range msgs {
		out[m.Event.Thread] = append(out[m.Event.Thread], m)
	}
	return out
}

// InterleaveChannels merges per-thread channels with a seeded random
// interleaving that preserves each channel's internal order.
func InterleaveChannels(channels map[int][]event.Message, seed int64) []event.Message {
	rng := rand.New(rand.NewSource(seed))
	var keys []int
	for k := range channels {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	pos := map[int]int{}
	total := 0
	for _, k := range keys {
		total += len(channels[k])
	}
	out := make([]event.Message, 0, total)
	for len(out) < total {
		var candidates []int
		for _, k := range keys {
			if pos[k] < len(channels[k]) {
				candidates = append(candidates, k)
			}
		}
		k := candidates[rng.Intn(len(candidates))]
		out = append(out, channels[k][pos[k]])
		pos[k]++
	}
	return out
}

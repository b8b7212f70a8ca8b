package wire

import (
	"errors"
	"fmt"
)

// The decode paths return typed, wrapped errors instead of a bare
// io.ErrUnexpectedEOF, so corruption reports are actionable: every
// failure names the frame kind, the byte offset, and the field being
// decoded, and wraps one of the sentinels below for errors.Is checks.
var (
	// ErrBadFrame is the root of every framing/decoding failure.
	ErrBadFrame = errors.New("bad frame")
	// ErrBadMagic: the byte at a frame boundary is not the frame magic.
	ErrBadMagic = fmt.Errorf("%w: bad magic byte", ErrBadFrame)
	// ErrBadVarint: a varint field is malformed (64-bit overflow).
	ErrBadVarint = fmt.Errorf("%w: malformed varint", ErrBadFrame)
	// ErrTruncated: the buffer or stream ended inside a frame.
	ErrTruncated = fmt.Errorf("%w: truncated", ErrBadFrame)
	// ErrBadLength: a length or count field is out of range (a frame
	// longer than the size limit, a Hello thread count outside
	// 1..MaxThreads, a message thread or a clock length at or beyond
	// the session's thread count).
	ErrBadLength = fmt.Errorf("%w: length out of range", ErrBadFrame)
	// ErrBadChecksum: the frame's CRC32C does not match its content.
	ErrBadChecksum = fmt.Errorf("%w: crc32c mismatch", ErrBadFrame)
	// ErrUnknownKind: the frame kind byte is not a known FrameKind.
	ErrUnknownKind = fmt.Errorf("%w: unknown frame kind", ErrBadFrame)
	// ErrVersion: the Hello carries an unsupported protocol version.
	ErrVersion = fmt.Errorf("%w: protocol version mismatch", ErrBadFrame)
	// ErrBadClockMode: a v3 message's clock mode byte is unknown.
	ErrBadClockMode = fmt.Errorf("%w: unknown clock mode", ErrBadFrame)
	// ErrDeltaChain: a delta-encoded clock does not chain to the last
	// delivered message of its thread (the predecessor was lost,
	// corrupt, or the frame is a stale duplicate).
	ErrDeltaChain = fmt.Errorf("%w: delta clock chain broken", ErrBadFrame)
)

// FrameError reports where and how a frame failed to decode. Offset is
// the byte offset of the failure within the stream.
type FrameError struct {
	Kind   FrameKind // frame kind, if it was readable (0 otherwise)
	Offset int64
	Field  string // the field being decoded when the failure hit
	Err    error  // one of the sentinels above (or a wrapped cause)
}

func (e *FrameError) Error() string {
	return fmt.Sprintf("wire: %v frame, field %q at byte %d: %v", e.Kind, e.Field, e.Offset, e.Err)
}

func (e *FrameError) Unwrap() error { return e.Err }

// Package observer implements the external observer process of the
// paper (Fig. 4): it consumes <e, i, V> messages from a wire session —
// in whatever order the transport delivers them — reconstructs the
// multithreaded computation, and drives the predictive analysis,
// either offline (Drain, then analyze) or online (analyze level by
// level as messages arrive, per §4).
//
// Every online entry point runs one session loop, AnalyzeSession: one
// frame step and one finish step. A lone channel is read on the
// caller's goroutine; goroutines start only to merge several channels
// or to time out a transport without a read deadline.
package observer

import (
	"errors"
	"fmt"
	"io"

	"gompax/internal/event"
	"gompax/internal/lattice"
	"gompax/internal/monitor"
	"gompax/internal/predict"
	"gompax/internal/telemetry"
	"gompax/internal/wire"
)

// Session is the drained content of one wire session.
type Session struct {
	Hello    wire.Hello
	Messages []event.Message
	// Done[i] is true when the sender announced thread i complete.
	Done []bool
	// SawBye is true when the session was closed by an explicit Bye.
	SawBye bool
	// Stats is the wire-level health of the channel (meaningful for a
	// resync receiver; all-zero on a clean strict stream).
	Stats wire.SessionStats
}

// Drain reads a whole session (through Bye or EOF) and returns its
// content. Frames may arrive in any order after the Hello.
func Drain(r *wire.Receiver) (*Session, error) {
	mSessions.With("drain").Inc()
	sp := telemetry.StartSpan("observer.drain")
	defer sp.End()
	var s *Session
	for {
		f, err := r.Next()
		if errors.Is(err, wire.ErrClosed) || errors.Is(err, io.EOF) {
			if s == nil {
				return nil, fmt.Errorf("observer: session ended before hello")
			}
			s.SawBye = errors.Is(err, wire.ErrClosed)
			s.Stats = r.Stats()
			return s, nil
		}
		if err != nil {
			return nil, err
		}
		switch f.Kind {
		case wire.FrameHello:
			if s != nil {
				return nil, fmt.Errorf("observer: duplicate hello")
			}
			s = &Session{Hello: *f.Hello, Done: make([]bool, f.Hello.Threads)}
		case wire.FrameMessage:
			if s == nil {
				return nil, fmt.Errorf("observer: message before hello")
			}
			s.Messages = append(s.Messages, f.Msg)
		case wire.FrameThreadDone:
			if s == nil {
				return nil, fmt.Errorf("observer: thread-done before hello")
			}
			if f.Thread < 0 || f.Thread >= len(s.Done) {
				return nil, fmt.Errorf("observer: thread-done for unknown thread %d", f.Thread)
			}
			s.Done[f.Thread] = true
		}
	}
}

// Computation reconstructs the multithreaded computation from the
// session. Thanks to Theorem 3 the result is independent of delivery
// order.
func (s *Session) Computation() (*lattice.Computation, error) {
	return lattice.NewComputation(s.Hello.Initial, s.Hello.Threads, s.Messages)
}

// Analyze consumes a single-channel session online: every message is
// fed to the incremental analyzer the moment it arrives, so violations
// on early lattice levels are detected while the program is still
// running. It is AnalyzeSession over one receiver with no idle timeout
// and no context.
func Analyze(r *wire.Receiver, prog *monitor.Program, opts predict.Options) (predict.Result, error) {
	return AnalyzeSession([]*wire.Receiver{r}, prog, SessionOptions{Predict: opts})
}

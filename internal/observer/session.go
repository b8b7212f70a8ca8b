package observer

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"gompax/internal/event"
	"gompax/internal/monitor"
	"gompax/internal/msg"
	"gompax/internal/predict"
	"gompax/internal/telemetry"
	"gompax/internal/wire"
)

// SessionOptions configures an observer session.
type SessionOptions struct {
	// Predict configures the online analysis. Predict.Span, when
	// non-nil, parents the session's observer.session span (the daemon
	// passes its serve.session root here).
	Predict predict.Options
	// IdleTimeout, when positive, bounds how long the session waits for
	// the next frame on each channel. A channel that stays silent past
	// the deadline is declared stalled: it is abandoned, the session
	// finishes as lossy (partial result + Degraded report), and the
	// call returns instead of hanging forever.
	IdleTimeout time.Duration
	// Ctx, when non-nil, gives the caller an external cancellation
	// path: the moment the context is done every channel stops being
	// read, the session is closed with the partial result computed so
	// far, and the analysis error is the context's error.
	//
	// Goroutine accounting: a lone channel whose transport has a read
	// deadline (net.Conn, net.Pipe) is read on the caller's goroutine;
	// the idle timeout and cancellation act through that deadline (left
	// set on return), so the session leaves no goroutine behind. Any
	// other channel is read by a pump goroutine that may still be
	// blocked in a transport read after cancellation or an idle timeout
	// — a plain io.Reader cannot be interrupted — but holds no session
	// state and exits once that read returns; closing the transport
	// reclaims it promptly.
	Ctx context.Context
}

// AnalyzeSession consumes an observer session online, feeding every
// frame to the incremental analyzer as it arrives. The session may be
// split across several wire channels (§2.2's "multiple channels to
// reduce the monitoring overhead"): each keeps its own order, the merge
// order is arbitrary — correctness rests on the vector clocks alone —
// and completion notices may arrive on any channel. Every channel
// carries the session's Hello: a repeat equal to the first is ignored,
// a different one is an error. The call returns once every channel has
// delivered its Bye or EOF, stalled, or failed.
//
// Fault tolerance: a channel that ends without a Bye marks the result
// MissingBye. With opts.Predict.Lossy (typically paired with resync
// receivers) delivery gaps degrade the result instead of failing it. On
// an unrecoverable error — a wire error from a strict receiver, a
// session inconsistency, cancellation — the partial result computed so
// far is returned alongside the error, never discarded.
func AnalyzeSession(rs []*wire.Receiver, prog *monitor.Program, opts SessionOptions) (predict.Result, error) {
	if len(rs) == 0 {
		return predict.Result{}, fmt.Errorf("observer: no channels")
	}
	mode := "online"
	if len(rs) > 1 {
		mode = "channels"
	}
	mSessions.With(mode).Inc()
	if opts.Predict.Span != nil {
		sp := opts.Predict.Span.Child("observer.session")
		defer sp.End()
		opts.Predict.Span = sp
	} else {
		sp := telemetry.StartSpan("observer.session")
		defer sp.End()
	}
	s := &session{prog: prog, opts: opts.Predict}
	// A lone channel is read inline unless it must be timed out or
	// cancelled and its transport has no read deadline to do that with.
	if len(rs) == 1 && (opts.Ctx == nil && opts.IdleTimeout <= 0 || rs[0].SetReadDeadline(time.Time{}) == nil) {
		return s.finish(rs, []channelEnd{s.readInline(rs[0], opts)})
	}
	var mu sync.Mutex
	ends := make([]channelEnd, len(rs))
	var wg sync.WaitGroup
	for i, r := range rs {
		wg.Add(1)
		go func(i int, r *wire.Receiver) {
			defer wg.Done()
			ends[i] = s.readPumped(r, opts, &mu)
		}(i, r)
	}
	wg.Wait()
	return s.finish(rs, ends)
}

// session is the state one observer session shares across its
// channels: the online analyzer, opened by the first hello, and the
// channel-event messages the messaging analyses run over at the end.
type session struct {
	prog     *monitor.Program
	opts     predict.Options
	hello    *wire.Hello
	online   *predict.Online
	chanMsgs []event.Message
}

// step applies one frame to the session.
func (s *session) step(f wire.Frame) error {
	switch f.Kind {
	case wire.FrameHello:
		if s.online == nil {
			online, err := predict.NewOnline(s.prog, f.Hello.Initial, f.Hello.Threads, s.opts)
			if err != nil {
				return err
			}
			s.online, s.hello = online, f.Hello
			return nil
		}
		if f.Hello.Threads != s.hello.Threads || !f.Hello.Initial.Equal(s.hello.Initial) {
			return fmt.Errorf("observer: conflicting hello")
		}
	case wire.FrameMessage:
		if s.online == nil {
			return fmt.Errorf("observer: message before hello")
		}
		mMessagesFed.Inc()
		if f.Msg.Event.Kind.IsChannel() {
			s.chanMsgs = append(s.chanMsgs, f.Msg)
		}
		return s.online.Feed(f.Msg)
	case wire.FrameThreadDone:
		if s.online == nil {
			return fmt.Errorf("observer: thread-done before hello")
		}
		return s.online.FinishThread(f.Thread)
	}
	return nil
}

// channelEnd is how one channel's read ended.
type channelEnd struct {
	err     error // nil on clean end (Bye or EOF)
	sawBye  bool
	stalled bool
}

// endOf classifies the read error that ended a channel.
func endOf(r *wire.Receiver, err error) channelEnd {
	if errors.Is(err, wire.ErrClosed) || errors.Is(err, io.EOF) {
		return channelEnd{sawBye: r.SawBye()}
	}
	return channelEnd{err: err}
}

// readInline reads a lone channel on the caller's goroutine. The idle
// timeout and the context act through the transport's read deadline,
// which is armed once, not per frame: when it fires while frames kept
// arriving, it moves to one idle period after the latest frame and the
// read resumes (a read that fails on its deadline loses nothing).
// Cancellation moves the deadline into the past. The deadline calls
// can only fail on a closed transport, which fails the next read anyway.
func (s *session) readInline(r *wire.Receiver, opts SessionOptions) channelEnd {
	var done <-chan struct{}
	if opts.Ctx != nil {
		done = opts.Ctx.Done()
		stop := context.AfterFunc(opts.Ctx, func() { r.SetReadDeadline(time.Unix(1, 0)) })
		defer stop()
	}
	cancelled := func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	idle, last := opts.IdleTimeout, time.Now()
	if idle > 0 {
		r.SetReadDeadline(last.Add(idle))
	}
	// Cancellation is checked before every read, so a deadline move can
	// never hide it, and before classifying a failed read, so whatever
	// the cancellation broke reports as the cancellation.
	for !cancelled() {
		f, err := r.Next()
		switch {
		case err == nil:
			if idle > 0 {
				last = time.Now()
			}
			if err := s.step(f); err != nil {
				return channelEnd{err: err}
			}
		case cancelled():
			return channelEnd{err: opts.Ctx.Err()}
		case idle <= 0 || !errors.Is(err, os.ErrDeadlineExceeded):
			return endOf(r, err)
		case time.Since(last) >= idle:
			return channelEnd{stalled: true}
		default:
			r.SetReadDeadline(last.Add(idle))
		}
	}
	return channelEnd{err: opts.Ctx.Err()}
}

type frameOrErr struct {
	f   wire.Frame
	err error
}

// readPumped reads one of several channels, or a lone channel without
// a read deadline, through a pump goroutine that isolates the blocking
// Next calls, so that this consumer can enforce the idle timeout and
// the context on any transport. Consumers step frames under mu. stop
// lets the consumer abandon the channel without stranding the pump on
// its send: once the transport read returns, the pump exits instead of
// blocking forever on a channel nobody drains.
func (s *session) readPumped(r *wire.Receiver, opts SessionOptions, mu *sync.Mutex) channelEnd {
	frames := make(chan frameOrErr, 1)
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			f, err := r.Next()
			select {
			case frames <- frameOrErr{f, err}:
			case <-stop:
				return
			}
			if err != nil {
				return
			}
		}
	}()
	// cancel is closed when opts.Ctx is done; a nil channel (no Ctx)
	// never fires in the select below.
	var cancel <-chan struct{}
	if opts.Ctx != nil {
		cancel = opts.Ctx.Done()
	}
	var timer *time.Timer
	var timeout <-chan time.Time
	if opts.IdleTimeout > 0 {
		timer = time.NewTimer(opts.IdleTimeout)
		defer timer.Stop()
		timeout = timer.C
	}
	for {
		var fe frameOrErr
		select {
		case fe = <-frames:
			if timer != nil {
				if !timer.Stop() {
					<-timer.C
				}
				timer.Reset(opts.IdleTimeout)
			}
		case <-timeout:
			return channelEnd{stalled: true}
		case <-cancel:
			return channelEnd{err: opts.Ctx.Err()}
		}
		if fe.err != nil {
			return endOf(r, fe.err)
		}
		mu.Lock()
		err := s.step(fe.f)
		mu.Unlock()
		if err != nil {
			return channelEnd{err: err}
		}
	}
}

// finish closes the session once every channel has ended. An error on
// any channel ends the session with that error and the partial result
// analyzed so far; otherwise the analysis is closed, lossily when a
// channel stalled. A channel that ended without a Bye marks the result
// MissingBye, and the result carries every faulty channel's wire stats
// and, for sessions with channel events, the messaging report.
func (s *session) finish(rs []*wire.Receiver, ends []channelEnd) (predict.Result, error) {
	stalled, missingBye := 0, false
	var ingestErr error
	for _, e := range ends {
		switch {
		case e.stalled:
			stalled++
		case e.err != nil:
			if ingestErr == nil {
				ingestErr = e.err
			}
		case !e.sawBye:
			missingBye = true
		}
	}
	var res predict.Result
	var err error
	switch {
	case ingestErr != nil:
		mSessionErrors.Inc()
		olog.Warn("session ended with error; salvaging partial result", "err", ingestErr)
		if s.online == nil {
			return predict.Result{}, ingestErr
		}
		res, err = s.online.Partial(), ingestErr
	case s.online == nil:
		return predict.Result{}, fmt.Errorf("observer: session ended before hello")
	case stalled > 0:
		// A stalled channel means lost frames: finish tolerantly.
		mStalledChannels.Add(uint64(stalled))
		olog.Warn("abandoning stalled channels; finishing lossy", "stalled", stalled)
		telemetry.SetHealth("observer", fmt.Sprintf("%d stalled channel(s)", stalled))
		res, err = s.online.CloseLossy()
		res.Degrade().StalledChannels = stalled
	default:
		res, err = s.online.Close()
	}
	if missingBye {
		res.Degrade().MissingBye = true
	}
	for _, r := range rs {
		if st := r.Stats(); st.Lossy() {
			res.Degrade().Wire = append(res.Degrade().Wire, st)
		}
	}
	// The whole-stream messaging analyses (lost-message,
	// partial-deadlock) only fire on a complete session with no
	// recorded degradation, so loss can weaken a channel verdict but
	// never flip it. Sessions without channel events get no report, so
	// their results stay byte-for-byte what they were before channels
	// existed.
	if len(s.chanMsgs) > 0 {
		res.Messaging = msg.Analyze(s.chanMsgs, msg.Options{
			Complete:   ingestErr == nil && !res.Degraded.Any(),
			Predictive: true,
		})
	}
	return res, err
}

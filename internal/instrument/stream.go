package instrument

import (
	"fmt"
	"io"

	"gompax/internal/event"
	"gompax/internal/interp"
	"gompax/internal/logic"
	"gompax/internal/mtl"
	"gompax/internal/mvc"
	"gompax/internal/sched"
	"gompax/internal/telemetry"
	"gompax/internal/wire"
)

// RunStreaming executes the program under the scheduler with
// instrumentation attached and streams the session to the observer as
// it runs — the socket of JMPaX's Fig. 4: a Hello, each relevant
// message as it is generated, a thread's completion notice at the step
// it halts, one flush per step, and a closing Bye. With several
// writers, thread i's frames travel on ws[i mod len(ws)] and every
// writer carries the Hello and a Bye; each writer preserves its
// threads' order while the writers race — the "multiple channels to
// reduce the monitoring overhead" of §2.2. initial must be the initial
// state of the relevant variables.
//
// The stream ends as Run's execution does. A deadlock is a whole
// observation: the threads still parked get their completion notices,
// the session closes with Bye, and the error is nil. Any other error —
// a runtime fault, a failed write, or exceeding maxEvents (0 =
// unlimited), which fails exactly as in Run — is returned with no Bye
// sent, so the observer degrades the session (MissingBye) and the
// whole-trace analyses abstain.
func RunStreaming(code *mtl.Compiled, policy mvc.Policy, initial logic.State, s sched.Scheduler, maxEvents uint64, ws ...io.Writer) error {
	if len(ws) == 0 {
		return fmt.Errorf("instrument: no channels")
	}
	if len(code.Tasks) > 0 {
		return fmt.Errorf("instrument: streaming sessions do not support dynamically spawned threads (the hello frame fixes the thread count)")
	}
	mode := "stream"
	if len(ws) > 1 {
		mode = "channels"
	}
	mRuns.With(mode).Inc()
	sp := telemetry.StartSpan("instrument.stream")
	defer sp.End()
	senders := make([]*wire.Sender, len(ws))
	for i, w := range ws {
		senders[i] = wire.NewSender(w)
		if err := senders[i].SendHello(wire.Hello{Threads: len(code.Threads), Initial: initial}); err != nil {
			return err
		}
	}
	route := func(thread int) *wire.Sender { return senders[thread%len(senders)] }

	var sinkErr error
	sink := mvc.SinkFunc(func(msg event.Message) {
		if sinkErr == nil {
			sinkErr = route(msg.Event.Thread).SendMessage(msg)
		}
	})
	m := interp.NewMachine(code, New(len(code.Threads), policy, sink))
	done := make([]bool, len(code.Threads))
	threadDone := func(tid int) error {
		done[tid] = true
		return route(tid).SendThreadDone(tid)
	}
	err := sched.RunSteps(m, s, maxEvents, func(tid int, kind interp.StepKind) error {
		if sinkErr != nil {
			return sinkErr
		}
		if kind == interp.Finished {
			if err := threadDone(tid); err != nil {
				return err
			}
		}
		// Flush every step so the observer sees events promptly; a
		// real deployment would flush on a timer or buffer high-water
		// mark.
		for _, snd := range senders {
			if err := snd.Flush(); err != nil {
				return err
			}
		}
		return nil
	})
	if _, deadlock := err.(*sched.DeadlockError); err != nil && !deadlock {
		return err
	}
	for tid := range done {
		if !done[tid] {
			if err := threadDone(tid); err != nil {
				return err
			}
		}
	}
	for _, snd := range senders {
		if err := snd.SendBye(); err != nil {
			return err
		}
	}
	return nil
}

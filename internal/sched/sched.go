// Package sched drives MTL machines: it supplies the thread-scheduling
// policies that stand in for the JVM/OS scheduler of the paper's
// setting. A seeded random scheduler models ordinary testing (each
// seed is one "test run"); the scripted scheduler replays a specific
// interleaving (e.g. a predicted counterexample); the exhaustive
// explorer enumerates every interleaving of small programs to ground-
// truth the predictive analysis.
package sched

import (
	"fmt"
	"math/rand"
	"strings"

	"gompax/internal/interp"
)

// Scheduler picks the next thread to run among the runnable ones.
type Scheduler interface {
	// Next returns the thread to step next. runnable is non-empty and
	// ascending. It is valid only during the call: the run loop reuses
	// its backing array at the next step, so a scheduler must not
	// retain it. Returning a thread not in runnable is an error the
	// run loop reports.
	Next(runnable []int) int
}

// Random schedules uniformly at random with a fixed seed — the
// "ordinary testing" scheduler.
type Random struct{ rng *rand.Rand }

// NewRandom returns a seeded random scheduler.
func NewRandom(seed int64) *Random {
	return &Random{rng: rand.New(rand.NewSource(seed))}
}

// Next implements Scheduler.
func (r *Random) Next(runnable []int) int {
	return runnable[r.rng.Intn(len(runnable))]
}

// RoundRobin cycles through threads with a fixed quantum of events.
type RoundRobin struct {
	Quantum int
	current int
	used    int
}

// Next implements Scheduler.
func (r *RoundRobin) Next(runnable []int) int {
	q := r.Quantum
	if q <= 0 {
		q = 1
	}
	for _, t := range runnable {
		if t == r.current && r.used < q {
			r.used++
			return t
		}
	}
	// Move to the next runnable thread after current (wrapping).
	next := runnable[0]
	for _, t := range runnable {
		if t > r.current {
			next = t
			break
		}
	}
	r.current = next
	r.used = 1
	return next
}

// Scripted replays a fixed schedule: the i-th stepped thread is
// Seq[i]. It is how predicted counterexample runs are re-executed.
type Scripted struct {
	Seq      []int
	pos      int
	fallback int
}

// Next implements Scheduler. When the script is exhausted it falls
// back to cycling through the runnable threads (letting epilogue code
// finish; always picking the first could livelock on a busy-wait loop
// that another thread must break).
func (s *Scripted) Next(runnable []int) int {
	if s.pos >= len(s.Seq) {
		t := runnable[s.fallback%len(runnable)]
		s.fallback++
		return t
	}
	t := s.Seq[s.pos]
	s.pos++
	return t
}

// Exhausted reports whether the whole script has been consumed.
func (s *Scripted) Exhausted() bool { return s.pos >= len(s.Seq) }

// DeadlockError reports that no thread was runnable while some were
// still blocked.
type DeadlockError struct {
	Blocked []string
	// Schedule is the event-producing thread sequence up to the
	// deadlock.
	Schedule []int
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sched: deadlock: %s", strings.Join(e.Blocked, "; "))
}

// RunResult summarizes a completed run.
type RunResult struct {
	// Events is the number of events executed.
	Events uint64
	// Schedule records which thread was stepped, for every Step that
	// progressed, finished, or parked the thread on a condition
	// variable or a channel operation (cond-parking must be replayed:
	// it determines which waiters a later notify wakes; a channel
	// first-park emits a ChanBlock event and establishes rendezvous
	// eligibility, so it must be replayed too). Lock-parking attempts
	// and silent channel re-parks (a woken thread re-checking and
	// parking again without an event) are omitted: they behave exactly
	// like the thread staying runnable. Replaying the schedule through
	// Scripted reproduces the run exactly.
	Schedule []int
}

// Run drives the machine with the scheduler until every thread halts.
// maxEvents bounds the run (0 = unlimited); exceeding it is an error,
// which keeps scheduling-dependent non-termination debuggable.
func Run(m *interp.Machine, s Scheduler, maxEvents uint64) (RunResult, error) {
	var res RunResult
	ev0 := m.Events()
	err := RunSteps(m, s, maxEvents, func(tid int, kind interp.StepKind) error {
		// Lock-parking consumed no event and is equivalent to staying
		// runnable, so it is not part of the schedule. Cond-parking is:
		// a later notify only wakes threads that have already parked.
		// Channel first-parks emit a ChanBlock event (m.Events advanced)
		// and must replay; silent channel re-parks are omitted like
		// lock-parks.
		if kind != interp.Blocked || m.Status(tid) == interp.BlockedCond || m.Events() > ev0 {
			res.Schedule = append(res.Schedule, tid)
		}
		ev0 = m.Events()
		return nil
	})
	if de, ok := err.(*DeadlockError); ok {
		de.Schedule = res.Schedule
	}
	if err != nil {
		return res, err
	}
	res.Events = m.Events()
	return res, nil
}

// RunSteps is the scheduler loop behind Run, without the schedule
// record: it drives the machine until every thread halts, calling step
// after every Step with the thread stepped and what the step did. A
// non-nil error from step ends the run with that error. The run ends
// with a *DeadlockError (with no Schedule) when no thread is runnable
// while some are still blocked, and with an error once the machine
// exceeds maxEvents (0 = unlimited), checked after step returns.
func RunSteps(m *interp.Machine, s Scheduler, maxEvents uint64, step func(tid int, kind interp.StepKind) error) error {
	var runnable []int
	for !m.Done() {
		runnable = m.AppendRunnable(runnable[:0])
		if len(runnable) == 0 {
			return &DeadlockError{Blocked: m.BlockedThreads()}
		}
		tid := s.Next(runnable)
		if tid < 0 || tid >= m.Threads() || m.Status(tid) != interp.Runnable {
			return fmt.Errorf("sched: scheduler chose non-runnable thread %d (runnable %v)", tid, runnable)
		}
		kind, err := m.Step(tid)
		if err != nil {
			return err
		}
		if err := step(tid, kind); err != nil {
			return err
		}
		if maxEvents > 0 && m.Events() > maxEvents {
			return fmt.Errorf("sched: exceeded %d events; non-terminating schedule?", maxEvents)
		}
	}
	return nil
}

// ExploreResult is the outcome of one explored maximal interleaving.
type ExploreResult struct {
	// Schedule is the exact Step sequence (progress/finish steps only).
	Schedule []int
	// Deadlocked is true when the interleaving ends with blocked
	// threads instead of completion.
	Deadlocked bool
	// Blocked describes the blocked threads of a deadlock.
	Blocked []string
	// Final is the final shared state.
	Final map[string]int64
}

// Explore enumerates every maximal interleaving of the machine (which
// must be freshly constructed), calling fn for each; enumeration stops
// early when fn returns false or after limit interleavings (0 = no
// limit). maxEvents bounds each interleaving's length. It returns the
// number of interleavings visited.
//
// Exploration runs uninstrumented (it temporarily installs NopHooks):
// callers replay schedules of interest with Run + Scripted and real
// instrumentation attached.
func Explore(m *interp.Machine, limit int, maxEvents uint64, fn func(ExploreResult) bool) (int, error) {
	m.SetHooks(interp.NopHooks{})
	count := 0
	stop := false
	var schedule []int
	var rec func() error
	rec = func() error {
		if stop {
			return nil
		}
		if maxEvents > 0 && m.Events() > maxEvents {
			return fmt.Errorf("sched: exploration exceeded %d events; non-terminating program?", maxEvents)
		}
		runnable := m.Runnable()
		if len(runnable) == 0 {
			count++
			res := ExploreResult{
				Schedule: append([]int(nil), schedule...),
				Final:    m.SharedState(),
			}
			if m.Deadlocked() {
				res.Deadlocked = true
				res.Blocked = m.BlockedThreads()
			}
			if !fn(res) || (limit > 0 && count >= limit) {
				stop = true
			}
			return nil
		}
		branched := false
		for _, tid := range runnable {
			snap := m.Snapshot()
			ev0 := m.Events()
			kind, err := m.Step(tid)
			if err != nil {
				return err
			}
			if kind == interp.Blocked && m.Events() == ev0 && m.Status(tid) != interp.BlockedCond {
				// Lock-parking and silent channel re-parks produce no
				// event and an equivalent state; skip this branch to
				// avoid duplicate interleavings.
				m.Restore(snap)
				continue
			}
			// Progress, finish, cond-parking and channel first-parks
			// (which emit a ChanBlock event) are all genuine branches
			// (cond-parking determines which waiters a later notify can
			// wake; a channel park establishes rendezvous eligibility).
			branched = true
			schedule = append(schedule, tid)
			if err := rec(); err != nil {
				return err
			}
			schedule = schedule[:len(schedule)-1]
			m.Restore(snap)
			if stop {
				return nil
			}
		}
		if !branched {
			// All runnable threads immediately block: a deadlock that
			// Runnable() cannot see yet. Park them all and report.
			for _, tid := range runnable {
				if _, err := m.Step(tid); err != nil {
					return err
				}
			}
			count++
			res := ExploreResult{
				Schedule:   append([]int(nil), schedule...),
				Final:      m.SharedState(),
				Deadlocked: true,
				Blocked:    m.BlockedThreads(),
			}
			if !fn(res) || (limit > 0 && count >= limit) {
				stop = true
			}
		}
		return nil
	}
	err := rec()
	return count, err
}

// Priority always runs the highest-priority runnable thread; threads
// missing from the Weights map get priority 0, ties go to the lowest
// thread id. It models starvation-prone scheduling (a high-priority
// spinner can starve the rest), which is useful for forcing the
// corner-case interleavings the random scheduler rarely produces.
type Priority struct {
	// Weights maps thread id to priority (higher runs first).
	Weights map[int]int
}

// Next implements Scheduler.
func (p *Priority) Next(runnable []int) int {
	best := runnable[0]
	bestW := p.Weights[best]
	for _, t := range runnable[1:] {
		if w := p.Weights[t]; w > bestW {
			best, bestW = t, w
		}
	}
	return best
}

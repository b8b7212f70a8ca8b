// Package predict implements JMPaX's monitoring module (§4, Fig. 4):
// it checks a safety formula against every multithreaded run encoded in
// a computation lattice, in parallel, while the lattice is constructed
// level by level.
//
// The key idea from the paper: instead of materializing the (possibly
// exponential) set of runs, each lattice cut carries the *set of
// monitor states* reachable at that cut along any path. Because the
// synthesized monitors have constant-size state (a bit per temporal
// subformula), this set is small and deduplicates aggressively, and
// only two consecutive lattice levels need to be alive at any moment.
// Cut identity is scoped to a level: each level's cuts are keyed by a
// digest derived in O(1) from the parent's, a node is built only for a
// cut new to the level, and no clock table outlives the level, so a
// retired level's cuts are garbage at the barrier. A cut's state is a
// vector of values by slot in the session's variable order, which the
// initial state fixes: a new cut copies its parent's vector and writes
// the one slot its event writes, and its entry and vector are carved
// from slabs sized to the frontier, so its clock is its only
// allocation of its own. The monitor sees a cut only through its
// atoms' truth values, compiled once per session to slot reads, so a
// cut's atoms are evaluated once, into one word, and each distinct
// (monitor state, atom valuation) transition is computed once per
// level, through a memo cleared at the barrier like the level's cut
// map.
//
// The memory-bounded level-by-level analysis described above is the
// production path, with two entry points over one level driver and one
// level step (level.go):
//
//   - Online: the paper's incremental observer — messages arrive in
//     any order, and each level is analyzed as soon as the events it
//     needs are delivered or ruled out.
//   - Analyze: the same analysis of a fully reconstructed computation,
//     run as an online session whose threads have all finished.
//
// Both produce identical results. A violation is identified by its
// cut: each reachable cut at which some run violates the formula is
// reported once.
//
// EnumerateRuns materializes the lattice and checks every run
// separately — exponential, but exact run-level statistics for
// reporting and for cross-checking Analyze (any violation found by one
// must be found by the other).
package predict

import (
	"errors"
	"fmt"

	"gompax/internal/event"
	"gompax/internal/lattice"
	"gompax/internal/logic"
	"gompax/internal/monitor"
	gmsg "gompax/internal/msg"
	"gompax/internal/telemetry/tracing"
	"gompax/internal/wire"
)

// ErrBudget is wrapped by analyses aborted for exceeding a configured
// budget (MaxCuts or MaxWidth), so a serving layer can tell a budget
// kill apart from a session inconsistency. The partial result computed
// up to the kill is still returned alongside the error.
var ErrBudget = errors.New("analysis budget exceeded")

// Options configures Analyze.
type Options struct {
	// MaxCuts aborts the analysis if more than this many distinct cuts
	// are explored (0 = unlimited). The abort is an ErrBudget.
	MaxCuts int
	// MaxWidth bounds the analyzer's live memory: the analysis aborts
	// with an ErrBudget when a sealed lattice level holds more than
	// this many distinct cuts (0 = unlimited). Because only two
	// adjacent levels are ever alive, and no table keeps the cuts of a
	// retired level, MaxWidth is a direct cap on the analyzer's working
	// set — the per-session memory budget a serving layer imposes on
	// untrusted clients. Both analyzers honor it.
	MaxWidth int
	// Counterexamples, when true, tracks one representative path per
	// (cut, monitor state) pair so violations carry a full run. This
	// costs extra memory (paths are O(depth)); with it off the analyzer
	// stores only the two active levels, as in the paper.
	Counterexamples bool
	// FirstOnly stops at the first violation: the canonically least
	// violating cut of the shallowest level that has one. Both
	// analyzers honor it.
	FirstOnly bool
	// Lossy makes the online analyzer tolerate lossy sessions instead
	// of failing: messages that cannot be accepted (duplicates, or
	// arrivals after a thread completed) are counted and ignored, and
	// Close truncates each thread's stream at its first delivery gap,
	// reporting what was lost in Result.Degraded, rather than
	// returning an error. Only Online honors this flag.
	Lossy bool
	// Progress, when non-nil, receives an atomic per-level snapshot of
	// the running analysis (level, frontier width, totals, last-advance
	// time; see Progress). A serving layer polls it for live session
	// introspection. Updated only at level seals; nil costs nothing.
	Progress *Progress
	// Span, when non-nil, parents one tracing child span per sealed
	// lattice level, linking the exploration into an end-to-end trace.
	// Both analyzers honor it at the shared level barrier.
	Span *tracing.Span
}

// Violation is a predicted safety violation: a reachable global state
// (cut) and a monitor that rejects there.
type Violation struct {
	// Cut is the consistent global state at which the property fails.
	Cut lattice.Cut
	// State is the cut's variable assignment.
	State logic.State
	// Level is the lattice level of the cut.
	Level int
	// Run is a counterexample: the relevant-event path from the initial
	// state to the violation. Populated only with Options.Counterexamples.
	Run *lattice.Run
}

func (v Violation) String() string {
	return fmt.Sprintf("violation at level %d, cut %s, state %s", v.Level, v.Cut, v.State)
}

// Stats reports the work the analyzer did.
type Stats struct {
	// Cuts is the number of distinct consistent cuts explored.
	Cuts int
	// Pairs is the number of (cut, monitor state) pairs stepped.
	Pairs int
	// Levels is the number of lattice levels traversed.
	Levels int
	// MaxWidth is the maximum number of cuts alive on one level: the
	// analyzer's memory high-water mark.
	MaxWidth int
	// MaxPairWidth is the maximum number of (cut, monitor state) pairs
	// alive on one level.
	MaxPairWidth int
	// LevelWidths records the number of distinct cuts explored at each
	// level, starting with the root level (width 1). Its length equals
	// Levels; for a complete computation it matches the materialized
	// lattice's per-level node counts, which is what the latticecheck
	// differential harness cross-checks.
	LevelWidths []int
}

// reserveLevels preallocates LevelWidths for an analysis expected to
// traverse at most n levels. A computation with E relevant events has
// at most E+1 levels, so Analyze sizes the slice exactly and deep
// lattices append without ever reallocating; Online, which cannot know
// E up front, seeds a generous initial capacity and lets append double
// from there.
func (s *Stats) reserveLevels(n int) {
	if n <= cap(s.LevelWidths) {
		return
	}
	w := make([]int, len(s.LevelWidths), n)
	copy(w, s.LevelWidths)
	s.LevelWidths = w
}

// addLevel seals one lattice level into the statistics.
func (s *Stats) addLevel(width, pairWidth int) {
	s.Levels++
	s.LevelWidths = append(s.LevelWidths, width)
	if width > s.MaxWidth {
		s.MaxWidth = width
	}
	if pairWidth > s.MaxPairWidth {
		s.MaxPairWidth = pairWidth
	}
}

// checkBudget enforces the per-analysis budget after a level seal:
// width is the number of distinct cuts on the level just sealed. The
// level driver calls it at the level barrier, so a budget kill happens
// at the same level in both analyzers.
func checkBudget(opts Options, stats *Stats, width int) error {
	if opts.MaxCuts > 0 && stats.Cuts > opts.MaxCuts {
		return fmt.Errorf("predict: %w: explored %d cuts (MaxCuts=%d)", ErrBudget, stats.Cuts, opts.MaxCuts)
	}
	if opts.MaxWidth > 0 && width > opts.MaxWidth {
		return fmt.Errorf("predict: %w: level %d holds %d cuts (MaxWidth=%d)", ErrBudget, stats.Levels-1, width, opts.MaxWidth)
	}
	return nil
}

// totalLevels bounds the number of levels the computation's lattice
// can have: one per relevant event, plus the root.
func totalLevels(comp *lattice.Computation) int {
	total := 1
	for i := 0; i < comp.Threads(); i++ {
		total += comp.Count(i)
	}
	return total
}

// Result is the outcome of a predictive analysis.
type Result struct {
	Violations []Violation
	Stats      Stats
	// Degraded is non-nil when the session the result was computed
	// from was lossy: the verdict is sound for the events that
	// arrived, but runs involving lost events were not explored.
	Degraded *Degraded
	// Messaging is the message-passing analyses' report, attached by
	// the observer when the session carried channel events; nil for
	// sessions without channels, so legacy results are untouched.
	Messaging *gmsg.Report
}

// Violated reports whether any violation was predicted.
func (r Result) Violated() bool { return len(r.Violations) > 0 }

// Degrade returns the result's degradation report, allocating it on
// first use.
func (r *Result) Degrade() *Degraded {
	if r.Degraded == nil {
		r.Degraded = &Degraded{}
	}
	return r.Degraded
}

// ThreadLoss describes what one thread lost in a lossy session.
type ThreadLoss struct {
	// Thread is the thread index.
	Thread int
	// Delivered is the length of the contiguous event prefix that was
	// analyzed.
	Delivered int
	// Dropped counts buffered out-of-order events discarded because
	// the event before them never arrived.
	Dropped int
	// FirstGap is the 1-based position of the first event that never
	// arrived (0 when the prefix was complete and only the completion
	// notice was missing).
	FirstGap uint64
}

func (l ThreadLoss) String() string {
	return fmt.Sprintf("thread %d: %d delivered, %d dropped, first gap at %d",
		l.Thread, l.Delivered, l.Dropped, l.FirstGap)
}

// Degraded reports how a lossy session limited the analysis: which
// threads lost frames, how much of the lattice was consequently out of
// reach, and the wire-level health of each channel. A degraded result
// is a sound verdict over the delivered events — it under-approximates
// the set of runs, never over-approximates it.
type Degraded struct {
	// MissingBye is set when the session ended without a Bye frame
	// (the stream tore before the sender closed).
	MissingBye bool
	// Stalled is set when delivered events could not all be applied:
	// their clocks name events that never arrived.
	Stalled bool
	// StalledChannels counts wire channels abandoned because they hit
	// the observer's idle timeout.
	StalledChannels int
	// Rejected counts messages the analyzer refused (duplicates,
	// arrivals after thread completion, malformed clocks).
	Rejected int
	// Threads lists the per-thread delivery losses.
	Threads []ThreadLoss
	// UnexplorableCuts is a lower bound on the lattice cuts that could
	// not be explored: the frontier successors blocked by a lost event
	// at the moment the session was cut short.
	UnexplorableCuts int
	// Wire holds the per-channel wire statistics (checksum failures,
	// resync skips, sequence gaps and duplicates).
	Wire []wire.SessionStats
}

// Any reports whether any degradation was recorded.
func (d *Degraded) Any() bool {
	if d == nil {
		return false
	}
	if d.MissingBye || d.Stalled || d.StalledChannels > 0 || d.Rejected > 0 ||
		len(d.Threads) > 0 || d.UnexplorableCuts > 0 {
		return true
	}
	for _, w := range d.Wire {
		if w.Lossy() {
			return true
		}
	}
	return false
}

func (d *Degraded) String() string {
	if !d.Any() {
		return "degraded: none"
	}
	s := "degraded:"
	if d.MissingBye {
		s += " missing-bye"
	}
	if d.Stalled {
		s += " stalled"
	}
	if d.StalledChannels > 0 {
		s += fmt.Sprintf(" stalled-channels=%d", d.StalledChannels)
	}
	if d.Rejected > 0 {
		s += fmt.Sprintf(" rejected=%d", d.Rejected)
	}
	if len(d.Threads) > 0 {
		s += fmt.Sprintf(" lossy-threads=%d", len(d.Threads))
	}
	if d.UnexplorableCuts > 0 {
		s += fmt.Sprintf(" unexplorable-cuts>=%d", d.UnexplorableCuts)
	}
	for i, w := range d.Wire {
		s += fmt.Sprintf(" ch%d[%s]", i, w)
	}
	return s
}

// Analyze runs the predictive safety analysis of the formula compiled
// in prog over the computation comp. It is the online analysis of a
// fully delivered session: the computation's per-thread messages are
// loaded up front, every thread is final, and the level driver runs to
// completion.
func Analyze(prog *monitor.Program, comp *lattice.Computation, opts Options) (Result, error) {
	o, err := newOnline(prog, comp.Initial(), comp.Threads(), opts, "offline", totalLevels(comp))
	if err != nil {
		return Result{}, err
	}
	for i := range o.events {
		o.events[i] = make([]smsg, comp.Count(i))
		for k := range o.events[i] {
			m := comp.Message(i, k+1)
			o.events[i][k] = smsg{m, o.slotOf(m)}
		}
	}
	return o.Close()
}

// RunReport is the outcome of the exhaustive per-run analysis.
type RunReport struct {
	// Total is the number of multithreaded runs in the lattice.
	Total int
	// Violating is how many of them violate the property.
	Violating int
	// Counterexamples holds up to Limit violating runs.
	Counterexamples []lattice.Run
	// Nodes and Width describe the materialized lattice.
	Nodes int
	Width int
}

// EnumerateRuns materializes the lattice (bounded by maxNodes; 0 =
// unlimited) and checks the property against every run separately.
// limit bounds the retained counterexamples (0 = all).
func EnumerateRuns(prog *monitor.Program, comp *lattice.Computation, maxNodes, limit int) (RunReport, error) {
	var rep RunReport
	l, err := lattice.Build(comp, maxNodes)
	if err != nil {
		return rep, err
	}
	rep.Nodes = l.NumNodes()
	rep.Width = l.Width()
	var stepErr error
	l.Runs(0, func(r lattice.Run) bool {
		rep.Total++
		idx, err := monitor.CheckTrace(prog, r.States)
		if err != nil {
			stepErr = err
			return false
		}
		if idx >= 0 {
			rep.Violating++
			if limit == 0 || len(rep.Counterexamples) < limit {
				cp := lattice.Run{
					Msgs:   append([]event.Message(nil), r.Msgs...),
					States: append([]logic.State(nil), r.States...),
				}
				rep.Counterexamples = append(rep.Counterexamples, cp)
			}
		}
		return true
	})
	return rep, stepErr
}

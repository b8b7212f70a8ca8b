package predict

import (
	"strconv"
	"sync/atomic"
	"time"

	"gompax/internal/telemetry/tracing"
)

// Progress is a cheap, externally readable snapshot of a running
// analysis, updated once per sealed lattice level: a handful of atomic
// stores at exactly the points where the explorers already flush their
// level telemetry, so the hot expansion loops stay untouched. A serving
// layer hands one Progress per session to the analyzer via
// Options.Progress and polls Snapshot from its HTTP handlers — the
// last-advance timestamp is what turns "is it stalled?" into a curl:
// a healthy wide level and a wedged session look identical in the
// counters but differ in how long ago they last advanced.
//
// All methods are safe on a nil *Progress (no-ops), so analysis code
// updates it unconditionally.
type Progress struct {
	level       atomic.Int64
	frontier    atomic.Int64
	cuts        atomic.Int64
	pairs       atomic.Int64
	violations  atomic.Int64
	lastAdvance atomic.Int64 // unix nanoseconds of the last level seal
	done        atomic.Bool
}

// record seals one level into the snapshot. Called by the level
// driver at each level barrier (and once for the root level).
func (p *Progress) record(stats *Stats, frontier, violations int) {
	if p == nil {
		return
	}
	p.level.Store(int64(stats.Levels - 1))
	p.frontier.Store(int64(frontier))
	p.cuts.Store(int64(stats.Cuts))
	p.pairs.Store(int64(stats.Pairs))
	p.violations.Store(int64(violations))
	p.lastAdvance.Store(time.Now().UnixNano())
}

// finish marks the analysis complete.
func (p *Progress) finish() {
	if p == nil {
		return
	}
	p.done.Store(true)
	p.lastAdvance.Store(time.Now().UnixNano())
}

// ProgressSnapshot is one consistent-enough read of a Progress: each
// field is individually atomic; fields can straddle a level seal, which
// is fine for monitoring.
type ProgressSnapshot struct {
	// Level is the highest fully sealed lattice level (0 = root).
	Level int `json:"level"`
	// FrontierWidth is the cut count of that level — the live memory.
	FrontierWidth int `json:"frontier_width"`
	// Cuts and Pairs are the totals explored so far.
	Cuts  int `json:"cuts"`
	Pairs int `json:"pairs"`
	// Violations is the number of violations reported so far.
	Violations int `json:"violations"`
	// LastAdvance is when the analysis last sealed a level (or
	// finished). The zero time means it has not started.
	LastAdvance time.Time `json:"last_advance"`
	// Done reports that the analysis completed (any verdict).
	Done bool `json:"done"`
}

// Snapshot reads the current progress. Safe on nil (zero snapshot).
func (p *Progress) Snapshot() ProgressSnapshot {
	if p == nil {
		return ProgressSnapshot{}
	}
	s := ProgressSnapshot{
		Level:         int(p.level.Load()),
		FrontierWidth: int(p.frontier.Load()),
		Cuts:          int(p.cuts.Load()),
		Pairs:         int(p.pairs.Load()),
		Violations:    int(p.violations.Load()),
		Done:          p.done.Load(),
	}
	if ns := p.lastAdvance.Load(); ns != 0 {
		s.LastAdvance = time.Unix(0, ns).UTC()
	}
	return s
}

// levelSpans emits one tracing child span per sealed lattice level
// under the analysis span of Options.Span, so a trace shows where the
// exploration's time went level by level. With a nil parent every
// method is free (one pointer compare, no clock reads) — the level
// driver calls it unconditionally.
type levelSpans struct {
	parent *tracing.Span
	last   time.Time
}

func newLevelSpans(parent *tracing.Span) levelSpans {
	ls := levelSpans{parent: parent}
	if parent != nil {
		ls.last = time.Now()
	}
	return ls
}

// seal closes the span of the level just sealed: it covers the time
// since the previous seal and carries the level's shape as attributes.
func (ls *levelSpans) seal(level, width, newCuts int) {
	if ls.parent == nil {
		return
	}
	now := time.Now()
	sp := ls.parent.ChildAt("predict.level", ls.last)
	sp.SetAttr("level", strconv.Itoa(level))
	sp.SetAttr("width", strconv.Itoa(width))
	sp.SetAttr("new_cuts", strconv.Itoa(newCuts))
	sp.EndAt(now)
	ls.last = now
}

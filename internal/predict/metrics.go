package predict

import (
	"gompax/internal/telemetry"
)

// Telemetry for lattice exploration. The hot loops never touch these
// metrics directly: the level step accumulates per-level tallies (new
// cuts, stepped pairs, successor edges, violating pairs) in plain ints,
// and the level driver flushes them here once per sealed level — a
// handful of atomic adds per level, zero per-edge cost. The live gauges
// therefore track the analysis level by level, which is exactly the
// granularity the paper's online construction works at.
var (
	mCuts = telemetry.Default().NewCounter("gompax_lattice_cuts_total",
		"Distinct consistent cuts explored across all analyses.")
	mPairs = telemetry.Default().NewCounter("gompax_lattice_pairs_total",
		"(cut, monitor state) pairs stepped across all analyses.")
	mEdges = telemetry.Default().NewCounter("gompax_lattice_edges_total",
		"Successor edges expanded (consistent single-event extensions).")
	mDedupHits = telemetry.Default().NewCounter("gompax_lattice_dedup_hits_total",
		"Successor edges that merged into a cut already on their level.")
	mLevels = telemetry.Default().NewCounter("gompax_lattice_levels_total",
		"Lattice levels sealed across all analyses.")
	mViolations = telemetry.Default().NewCounter("gompax_predict_violations_total",
		"Violating (cut, monitor state) pairs detected (pre-dedup).")
	mLevelWidth = telemetry.Default().NewGauge("gompax_lattice_level_width",
		"Cuts alive on the most recently sealed lattice level.")
	mLevelPairWidth = telemetry.Default().NewGauge("gompax_lattice_level_pair_width",
		"(cut, monitor state) pairs alive on the most recently sealed level.")
	mMaxWidth = telemetry.Default().NewGauge("gompax_lattice_max_width",
		"High-water mark of cuts alive on one level (process lifetime).")
	mAnalyses = telemetry.Default().NewCounterVec("gompax_predict_analyses_total",
		"Predictive analyses started.", "mode")
	mDegraded = telemetry.Default().NewCounter("gompax_predict_degraded_total",
		"Analyses that finished with a degradation report.")
)

// flushRootTelemetry records the root level (one cut, one stepped
// pair) when an analysis starts.
func flushRootTelemetry(violated bool) {
	mCuts.Inc()
	mPairs.Inc()
	mEdges.Add(0)
	mLevels.Inc()
	mLevelWidth.Set(1)
	mLevelPairWidth.Set(1)
	mMaxWidth.SetMax(1)
	if violated {
		mViolations.Inc()
	}
}

// flushLevelTelemetry records one sealed lattice level: width cuts and
// pairWidth surviving pairs alive, newCuts freshly built, pairs
// monitor steps taken, edges successor extensions expanded (so
// edges-newCuts is the level's dedup-hit count), and violated
// violating pairs found (pre-dedup).
func flushLevelTelemetry(width, pairWidth, newCuts, pairs, edges, violated int) {
	mCuts.Add(uint64(newCuts))
	mPairs.Add(uint64(pairs))
	mEdges.Add(uint64(edges))
	mDedupHits.Add(uint64(edges - newCuts))
	mLevels.Inc()
	mViolations.Add(uint64(violated))
	mLevelWidth.Set(int64(width))
	mLevelPairWidth.Set(int64(pairWidth))
	mMaxWidth.SetMax(int64(width))
}

// analysisStatus is the /statusz "analysis" section: the live Stats of
// the most recently advanced analysis, including the full LevelWidths
// profile. Published only while telemetry is active (a collector is
// attached), so inactive runs pay nothing.
type analysisStatus struct {
	Cuts         int   `json:"cuts"`
	Pairs        int   `json:"pairs"`
	Levels       int   `json:"levels"`
	MaxWidth     int   `json:"max_width"`
	MaxPairWidth int   `json:"max_pair_width"`
	LevelWidths  []int `json:"level_widths"`
	Violations   int   `json:"violations"`
	Degraded     bool  `json:"degraded"`
	Done         bool  `json:"done"`
}

// publishStatus publishes the live analysis snapshot for /statusz,
// once per sealed level. The snapshot holds a capped view of the live
// LevelWidths, not a copy: the slice only grows by append, so the view
// never changes under a reader and publication is O(1) per level. The
// final snapshot (done) is a copy, since the finished slice escapes to
// the caller.
func publishStatus(res *Result, done bool) {
	if !telemetry.Active() {
		return
	}
	widths := res.Stats.LevelWidths
	widths = widths[:len(widths):len(widths)]
	if done {
		widths = append([]int(nil), widths...)
	}
	telemetry.PublishStatus("analysis", analysisStatus{
		Cuts:         res.Stats.Cuts,
		Pairs:        res.Stats.Pairs,
		Levels:       res.Stats.Levels,
		MaxWidth:     res.Stats.MaxWidth,
		MaxPairWidth: res.Stats.MaxPairWidth,
		LevelWidths:  widths,
		Violations:   len(res.Violations),
		Degraded:     res.Degraded.Any(),
		Done:         done,
	})
}

// finishTelemetry records the end of an analysis.
func finishTelemetry(res *Result) {
	if res.Degraded.Any() {
		mDegraded.Inc()
	}
	mLevelWidth.Set(0)
	mLevelPairWidth.Set(0)
	publishStatus(res, true)
}

package clock

import (
	"encoding/json"

	"gompax/internal/telemetry"
)

// Interning telemetry. Table operations already take a shard lock, so
// one uncontended atomic add per intern outcome is within the §9
// hot-path budget (no time syscalls, no allocation, not gated). The
// tables gauge counts tables created; tables are scoped to sessions and
// reclaimed by GC with their nodes, so it is a high-water view of what
// the process has built, not of what is live.
var (
	mInterned = telemetry.Default().NewCounter("gompax_clock_interned_total",
		"Distinct clock values interned across all clock tables.")
	mHits = telemetry.Default().NewCounter("gompax_clock_intern_hits_total",
		"Intern lookups that found an existing canonical clock node.")
	mTables = telemetry.Default().NewGauge("gompax_clock_intern_tables",
		"Clock interning tables created by the process.")
)

// statusSection marshals live interning state at scrape time, so the
// /statusz "clock" section is always current with zero cost on the
// interning path.
type statusSection struct{}

func (statusSection) MarshalJSON() ([]byte, error) {
	interned := mInterned.Value()
	hits := mHits.Value()
	ratio := 0.0
	if total := interned + hits; total > 0 {
		ratio = float64(hits) / float64(total)
	}
	return json.Marshal(map[string]any{
		"interned_total":    interned,
		"intern_hits_total": hits,
		"hit_ratio":         ratio,
		"tables":            mTables.Value(),
	})
}

func init() {
	telemetry.PublishStatus("clock", statusSection{})
}

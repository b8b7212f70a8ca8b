package telemetry

import (
	"context"
	"log/slog"
	"time"
)

// Lightweight pipeline spans: a Span marks one stage of the pipeline
// (instrument → wire session → observer ingest → lattice level
// exploration → monitor checks) with a start/end pair, a measured
// duration, and linkage to a parent stage. Ending a span feeds the
// gompax_span_duration_nanoseconds histogram (labeled span/parent) and
// emits a debug log record.
//
// Spans honor the Active flag: when telemetry is inactive StartSpan
// returns nil and every method on a nil *Span is a no-op, so the
// disabled cost is one atomic load and a branch.

var (
	spanDurations = Default().NewHistogramVec("gompax_span_duration_nanoseconds",
		"Duration of pipeline spans in nanoseconds.", "span", "parent")
	spansTotal = Default().NewCounterVec("gompax_spans_total",
		"Completed pipeline spans.", "span", "parent")
	spanLog = Logger("span")
)

// Span is one timed pipeline stage.
type Span struct {
	name   string
	parent string
	start  time.Time
}

// StartSpan opens a root span. Returns nil (a no-op span) when
// telemetry is inactive.
func StartSpan(name string) *Span {
	if !Active() {
		return nil
	}
	return &Span{name: name, start: time.Now()}
}

// Child opens a sub-span linked to s. A child of a nil span is nil.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return &Span{name: name, parent: s.name, start: time.Now()}
}

// End closes the span, recording its duration. Safe on nil.
func (s *Span) End() {
	if s == nil {
		return
	}
	ObserveSpan(s.name, s.parent, time.Since(s.start))
}

// ObserveSpan feeds one completed span into the span metrics
// (gompax_span_duration_nanoseconds and gompax_spans_total) and the
// debug span log. The tracing package calls this when its richer spans
// end, so tree-traced pipelines keep populating the same histograms
// the fire-and-forget spans always fed.
func ObserveSpan(name, parent string, d time.Duration) {
	spanDurations.With(name, parent).Observe(uint64(d.Nanoseconds()))
	spansTotal.With(name, parent).Inc()
	if spanLog.Enabled(context.Background(), slog.LevelDebug) {
		spanLog.Debug("span end", "span", name, "parent", parent, "duration", d)
	}
}

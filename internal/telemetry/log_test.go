package telemetry

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"strings"
	"testing"
	"time"
)

// TestLoggerFollowsInitLogging: a logger taken before InitLogging — a
// package-level var, as the observer and the daemon keep — writes
// through the handler InitLogging installs, not the one it was born
// with.
func TestLoggerFollowsInitLogging(t *testing.T) {
	early := Logger("early").With("k", 1)
	var buf bytes.Buffer
	InitLogging(slog.LevelWarn, true, &buf)
	defer InitLogging(slog.LevelWarn, false, nil)

	early.Info("below the level")
	early.Warn("session ended with error", "err", "boom")
	line := strings.TrimSpace(buf.String())
	if strings.Contains(line, "below the level") || strings.Count(line, "\n") != 0 {
		t.Fatalf("want exactly the one warning, got:\n%s", line)
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("record is not JSON: %v\n%s", err, line)
	}
	if rec["component"] != "early" || rec["k"] != float64(1) || rec["err"] != "boom" {
		t.Fatalf("record lost its attributes: %v", rec)
	}

	// A second reconfiguration moves it again.
	var text bytes.Buffer
	InitLogging(slog.LevelWarn, false, &text)
	early.WithGroup("g").Warn("again", "n", 2)
	if got := text.String(); !strings.Contains(got, "component=early") || !strings.Contains(got, "g.n=2") {
		t.Fatalf("text record = %q", got)
	}
}

// TestObserveSpanAllocs: ending a span with debug logging off costs
// the two metric updates and nothing for the span log.
func TestObserveSpanAllocs(t *testing.T) {
	InitLogging(slog.LevelWarn, false, nil)
	allocs := testing.AllocsPerRun(200, func() {
		ObserveSpan("predict.level", "serve.session", time.Microsecond)
	})
	if allocs > 4 {
		t.Fatalf("ObserveSpan allocates %.1f times per call with debug off, want <= 4", allocs)
	}
	l := Logger("span")
	if n := testing.AllocsPerRun(200, func() { l.Debug("off", "n", 1) }); n != 0 {
		t.Fatalf("a record below the level allocates %.1f times", n)
	}
}

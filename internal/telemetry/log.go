package telemetry

import (
	"context"
	"io"
	"log/slog"
	"os"
	"strings"
	"sync/atomic"
)

// Structured logging for the pipeline: one shared slog handler whose
// level can be adjusted at runtime, with per-component child loggers
// (Logger("wire"), Logger("observer"), ...) that tag every record with
// component=<name>. The default configuration writes human-readable
// logs to stderr at Warn, so library users and the CLI stay quiet
// unless something degrades; gompax's -log-level/-log-json flags
// reconfigure it via InitLogging.

// logLevel is the shared, runtime-adjustable level gate.
var logLevel = func() *slog.LevelVar {
	v := &slog.LevelVar{}
	v.Set(slog.LevelWarn)
	return v
}()

// rootLogger holds the current *slog.Logger; swapped atomically by
// InitLogging so concurrent Logger calls never race.
var rootLogger atomic.Pointer[slog.Logger]

func init() {
	rootLogger.Store(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: logLevel})))
}

// ParseLevel maps a -log-level flag value to a slog.Level.
func ParseLevel(s string) (slog.Level, bool) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, true
	case "info":
		return slog.LevelInfo, true
	case "warn", "warning":
		return slog.LevelWarn, true
	case "error":
		return slog.LevelError, true
	}
	return 0, false
}

// InitLogging reconfigures the shared logger: minimum level, JSON or
// text encoding, and destination (nil keeps stderr).
func InitLogging(level slog.Level, json bool, w io.Writer) {
	if w == nil {
		w = os.Stderr
	}
	logLevel.Set(level)
	opts := &slog.HandlerOptions{Level: logLevel}
	var h slog.Handler
	if json {
		h = slog.NewJSONHandler(w, opts)
	} else {
		h = slog.NewTextHandler(w, opts)
	}
	rootLogger.Store(slog.New(h))
}

// Logger returns the shared logger tagged with a component name.
// Components are the pipeline layers: instrument, mvc, wire, observer,
// predict, monitor, driver, cli. The logger writes through whichever
// handler InitLogging installed last, so one taken once — at package
// init, say — follows later reconfiguration.
func Logger(component string) *slog.Logger {
	return slog.New(&componentHandler{}).With("component", component)
}

// componentHandler is the handler behind Logger. It replays its
// derivations (the component tag, then any With and WithGroup calls,
// in order) onto the current root handler, and caches the result until
// InitLogging replaces the root. Enabled asks the root directly, so a
// record below the level costs an atomic load and no allocation.
type componentHandler struct {
	ops   []func(slog.Handler) slog.Handler
	bound atomic.Pointer[boundHandler]
}

// boundHandler is a componentHandler's derivation of one root logger.
type boundHandler struct {
	root *slog.Logger
	h    slog.Handler
}

func (c *componentHandler) handler() slog.Handler {
	root := rootLogger.Load()
	if b := c.bound.Load(); b != nil && b.root == root {
		return b.h
	}
	h := root.Handler()
	for _, op := range c.ops {
		h = op(h)
	}
	c.bound.Store(&boundHandler{root: root, h: h})
	return h
}

// Enabled implements slog.Handler.
func (c *componentHandler) Enabled(ctx context.Context, l slog.Level) bool {
	return rootLogger.Load().Handler().Enabled(ctx, l)
}

// Handle implements slog.Handler.
func (c *componentHandler) Handle(ctx context.Context, r slog.Record) error {
	return c.handler().Handle(ctx, r)
}

// WithAttrs implements slog.Handler.
func (c *componentHandler) WithAttrs(as []slog.Attr) slog.Handler {
	return c.derive(func(h slog.Handler) slog.Handler { return h.WithAttrs(as) })
}

// WithGroup implements slog.Handler.
func (c *componentHandler) WithGroup(name string) slog.Handler {
	return c.derive(func(h slog.Handler) slog.Handler { return h.WithGroup(name) })
}

func (c *componentHandler) derive(op func(slog.Handler) slog.Handler) slog.Handler {
	return &componentHandler{ops: append(c.ops[:len(c.ops):len(c.ops)], op)}
}

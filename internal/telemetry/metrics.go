// Package telemetry is gompax's observability layer: a dependency-free
// metrics core (atomic counters, gauges and fixed-bucket histograms,
// optionally grouped into labeled families), Prometheus text
// exposition, structured component-tagged logging on log/slog,
// lightweight pipeline spans, and an HTTP introspection server
// (/metrics, /healthz, /statusz, /debug/pprof).
//
// The paper's central claim is that the predictive analysis stays
// *online* — the observer keeps up with the instrumented program while
// the computation lattice can grow combinatorially wide (§4, Fig. 6).
// This package makes that visible while it happens, under a strict
// overhead budget: the design is pull-based and nearly free when no
// collector is attached. Hot paths perform plain or atomic integer
// adds only — no locks, no allocation, no time syscalls — and anything
// more expensive (latency timing, span clocks) is gated behind the
// process-wide Active flag, a single atomic load when disabled. The
// pipeline packages batch their hottest counters locally and flush
// them once per lattice level (see internal/predict), so the per-edge
// cost of telemetry is zero. `make verify` enforces the budget with a
// benchmark gate (≤5% on BenchmarkExploreSequential, see
// BENCH_telemetry.json).
//
// All gompax metrics live in the gompax_* namespace; the catalogue is
// documented in DESIGN.md §9.
package telemetry

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// active gates the telemetry features that are not free: latency
// timing in the MVC tracker, span duration clocks, and anything else
// that needs a time syscall. It is enabled when a collector attaches
// (Serve) or explicitly via SetActive.
var active atomic.Bool

// SetActive turns the gated (non-free) telemetry features on or off.
// Counters and gauges are always live; only time-based measurements
// honor this flag.
func SetActive(on bool) { active.Store(on) }

// Active reports whether gated telemetry features are on. A single
// atomic load — cheap enough for per-event hot paths.
func Active() bool { return active.Load() }

// A Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n. Counters are monotonic; callers must not pass values
// that would decrease them.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// A Gauge is an atomic value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// SetMax raises the gauge to n if n is larger (a monotonic
// high-water-mark update, lock-free).
func (g *Gauge) SetMax(n int64) {
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histogramBuckets is the number of log-scale buckets: powers of two
// from 2^0 up to 2^(histogramBuckets-2), plus a final +Inf bucket.
// With 40 buckets the range spans 1ns .. ~9.1min when observing
// nanoseconds — wide enough for event latencies and span durations
// alike, fixed so histograms never allocate after creation.
const histogramBuckets = 40

// A Histogram counts observations in fixed log-scale (power-of-two)
// buckets. Observe is one atomic add per call plus two for sum/count;
// there are no locks and no per-observation allocation.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [histogramBuckets]atomic.Uint64
}

// bucketIndex maps a value to its bucket: bucket i counts values
// v <= 2^i, the last bucket is +Inf.
func bucketIndex(v uint64) int {
	if v <= 1 {
		return 0
	}
	i := bits.Len64(v - 1) // ceil(log2(v)) for v >= 2
	if i > histogramBuckets-1 {
		return histogramBuckets - 1
	}
	return i
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketIndex(v)].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// snapshot returns cumulative bucket counts with their upper bounds.
func (h *Histogram) snapshot() (bounds []float64, cumulative []uint64) {
	bounds = make([]float64, histogramBuckets)
	cumulative = make([]uint64, histogramBuckets)
	var acc uint64
	for i := 0; i < histogramBuckets; i++ {
		acc += h.buckets[i].Load()
		cumulative[i] = acc
		if i == histogramBuckets-1 {
			bounds[i] = math.Inf(1)
		} else {
			bounds[i] = float64(uint64(1) << uint(i))
		}
	}
	return bounds, cumulative
}

// metricKind tags a family for exposition.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// family is one named metric with zero or more labeled children.
type family struct {
	name   string
	help   string
	kind   metricKind
	labels []string // label names, fixed at registration

	mu       sync.RWMutex
	children map[string]*child // key: joined label values
}

// child is one labeled time series inside a family.
type child struct {
	labelValues []string
	counter     *Counter
	gauge       *Gauge
	histogram   *Histogram
}

// Registry holds metric families. Registration takes a lock; reads and
// updates of the metrics themselves are lock-free. The zero value is
// not usable; use NewRegistry. Most callers use the package-level
// Default registry.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family

	// scrapeHooks run at the start of every WriteTo, so gauges that
	// mirror external state (runtime memory stats, queue depths) are
	// sampled exactly when a collector looks — pull-based, with no
	// background sampling goroutine. Keyed by name so re-registration
	// replaces rather than stacks.
	scrapeMu    sync.Mutex
	scrapeHooks map[string]func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// defaultRegistry is the process-wide registry all gompax_* metrics
// register into.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

func (r *Registry) register(name, help string, kind metricKind, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("telemetry: metric %q re-registered with a different schema", name))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, labels: labels, children: map[string]*child{}}
	r.families[name] = f
	return f
}

// escapeKey escapes the labelKey separator; hoisted to a package var
// because child lookup is on the hot path of every With call (deep
// tracers create thousands of labeled children per tracker).
var escapeKey = strings.NewReplacer(`\`, `\\`, "\x1f", `\u`)

// labelKey joins label values into a child key. The separator cannot
// appear in values unescaped ambiguity-free, so escape it.
func labelKey(values []string) string {
	if len(values) == 0 {
		return ""
	}
	if len(values) == 1 {
		return escapeKey.Replace(values[0])
	}
	escaped := make([]string, len(values))
	for i, v := range values {
		escaped[i] = escapeKey.Replace(v)
	}
	return strings.Join(escaped, "\x1f")
}

func (f *family) child(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := labelKey(values)
	f.mu.RLock()
	c, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c = &child{labelValues: append([]string(nil), values...)}
	switch f.kind {
	case kindCounter:
		c.counter = &Counter{}
	case kindGauge:
		c.gauge = &Gauge{}
	case kindHistogram:
		c.histogram = &Histogram{}
	}
	f.children[key] = c
	return c
}

// NewCounter registers (or retrieves) an unlabeled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	return r.register(name, help, kindCounter, nil).child(nil).counter
}

// NewGauge registers (or retrieves) an unlabeled gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	return r.register(name, help, kindGauge, nil).child(nil).gauge
}

// NewHistogram registers (or retrieves) an unlabeled histogram with
// the fixed power-of-two buckets.
func (r *Registry) NewHistogram(name, help string) *Histogram {
	return r.register(name, help, kindHistogram, nil).child(nil).histogram
}

// CounterVec is a family of counters distinguished by label values.
type CounterVec struct{ f *family }

// NewCounterVec registers a labeled counter family.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, kindCounter, labels)}
}

// With returns the counter for the given label values, creating it on
// first use. Hot paths should cache the returned *Counter.
func (v *CounterVec) With(values ...string) *Counter { return v.f.child(values).counter }

// HistogramVec is a family of histograms distinguished by label values.
type HistogramVec struct{ f *family }

// NewHistogramVec registers a labeled histogram family.
func (r *Registry) NewHistogramVec(name, help string, labels ...string) *HistogramVec {
	return &HistogramVec{r.register(name, help, kindHistogram, labels)}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.child(values).histogram }

// OnScrape registers a named hook that runs at the start of every
// WriteTo (i.e. on each /metrics scrape), before the families are
// rendered. Hooks refresh gauges whose truth lives outside the
// registry — Go runtime stats, admission queue depth — so scrapes see
// current values without any background sampling. Registering the same
// name again replaces the hook (a daemon restart in tests re-registers
// cleanly instead of stacking stale closures).
func (r *Registry) OnScrape(name string, f func()) {
	r.scrapeMu.Lock()
	if r.scrapeHooks == nil {
		r.scrapeHooks = map[string]func(){}
	}
	r.scrapeHooks[name] = f
	r.scrapeMu.Unlock()
}

// runScrapeHooks runs the registered hooks in name order (determinism
// for tests; the hooks themselves must be independent).
func (r *Registry) runScrapeHooks() {
	r.scrapeMu.Lock()
	names := make([]string, 0, len(r.scrapeHooks))
	for name := range r.scrapeHooks {
		names = append(names, name)
	}
	sort.Strings(names)
	hooks := make([]func(), len(names))
	for i, name := range names {
		hooks[i] = r.scrapeHooks[name]
	}
	r.scrapeMu.Unlock()
	for _, f := range hooks {
		f()
	}
}

// sortedFamilies returns the registry's families ordered by name.
func (r *Registry) sortedFamilies() []*family {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// sortedChildren returns a family's children ordered by label values.
func (f *family) sortedChildren() []*child {
	f.mu.RLock()
	cs := make([]*child, 0, len(f.children))
	for _, c := range f.children {
		cs = append(cs, c)
	}
	f.mu.RUnlock()
	sort.Slice(cs, func(i, j int) bool {
		a, b := cs[i].labelValues, cs[j].labelValues
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
	return cs
}

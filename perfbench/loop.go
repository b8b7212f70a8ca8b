package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gompax/internal/instrument"
	"gompax/internal/interp"
	"gompax/internal/logic"
	"gompax/internal/monitor"
	"gompax/internal/mtl"
	"gompax/internal/mvc"
	"gompax/internal/sched"
	"gompax/internal/serve"
	"gompax/internal/telemetry/tracing"
	"gompax/internal/wire"
)

const (
	// clients is the number of closed-loop callers. One leaves the
	// second core of the 2-vCPU reference host to the runtime (GC,
	// netpoll, the host probe): with two, both sessions' analyses, the
	// GC and the streaming client contended for two cores and the
	// wide-lattice timings of one commit spread by 0.16-0.30 run to run.
	clients     = 1
	maxSessions = 2 // daemon analysis workers

	// heapPassTimeout only guards against a hung daemon: the heap pass
	// ends when its sessions are done.
	heapPassTimeout = 2 * time.Minute
)

// prepared is a session with its program and spec compiled.
type prepared struct {
	session
	code    *mtl.Compiled
	formula logic.Formula
	prog    *monitor.Program
	policy  mvc.Policy
	initial logic.State
	steps   uint64 // interpreter steps of its run
}

// compileAll parses and compiles every distinct program and spec of the
// list once.
func compileAll(list []session) ([]prepared, error) {
	codes := map[string]*mtl.Compiled{}
	type spec struct {
		f    logic.Formula
		prog *monitor.Program
	}
	specs := map[string]spec{}
	out := make([]prepared, len(list))
	for i, s := range list {
		code := codes[s.src]
		if code == nil {
			p, err := mtl.Parse(s.src)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", s.kind, err)
			}
			if code, err = mtl.Compile(p); err != nil {
				return nil, fmt.Errorf("%s: %w", s.kind, err)
			}
			codes[s.src] = code
		}
		sp, ok := specs[s.spec]
		if !ok {
			f, err := logic.ParseFormula(specFormulas[s.spec])
			if err != nil {
				return nil, fmt.Errorf("spec %s: %w", s.spec, err)
			}
			prog, err := monitor.Compile(f)
			if err != nil {
				return nil, fmt.Errorf("spec %s: %w", s.spec, err)
			}
			sp = spec{f, prog}
			specs[s.spec] = sp
		}
		initial, err := instrument.InitialState(code.Prog, sp.f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.kind, err)
		}
		out[i] = prepared{session: s, code: code, formula: sp.f, prog: sp.prog,
			policy: instrument.PolicyFor(sp.f), initial: initial}
	}
	return out, nil
}

// countSteps records each session's interpreter step count from an
// uninstrumented run on the same schedule (the hooks do not change the
// interleaving), for the per-event ratios.
func countSteps(list []prepared) error {
	for i := range list {
		res, err := sched.Run(interp.NewMachine(list[i].code, interp.NopHooks{}), sched.NewRandom(list[i].sched), 0)
		if err != nil {
			return fmt.Errorf("%s: %w", list[i].kind, err)
		}
		list[i].steps = res.Events
	}
	return nil
}

// stream runs the instrumented program and writes its session to w,
// through the fault injector for chaos sessions.
func stream(w io.Writer, p *prepared) error {
	if p.chaos == 0 {
		return instrument.RunStreaming(p.code, p.policy, p.initial, sched.NewRandom(p.sched), 0, w)
	}
	fw := wire.NewFaultWriter(w, chaosPlan(p.chaos))
	if err := instrument.RunStreaming(p.code, p.policy, p.initial, sched.NewRandom(p.sched), 0, fw); err != nil {
		return err
	}
	return fw.Close()
}

// sample is one client session's timeline and outcome.
type sample struct {
	p        *prepared
	start    time.Time // before Dial
	admitted time.Time // OK received
	progEnd  time.Time // Bye flushed
	end      time.Time // VERDICT received
	verdict  serve.Verdict
	err      error
	failed   bool
	spans    []tracing.SpanData // the daemon's spans, when traced
	slow     float64            // host slowdown around the session (host.go)
}

func (s sample) programMs() float64 { return ms(s.progEnd.Sub(s.admitted)) }
func (s sample) lagMs() float64     { return ms(s.end.Sub(s.progEnd)) }
func (s sample) totalMs() float64   { return ms(s.end.Sub(s.start)) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// atRef scales a per-session time to reference host speed.
func atRef(f func(sample) float64) func(sample) float64 {
	return func(s sample) float64 { return f(s) / s.slow }
}

// runSession is one gompax -connect style caller: dial, stream the
// instrumented run, half-close, wait for the verdict.
func runSession(addr string, p *prepared, tr *tracing.Tracer) (s sample) {
	s = sample{p: p, start: time.Now()}
	defer func() { s.failed = judge(p.session, s.verdict, s.err) }()
	req := serve.SessionRequest{Spec: p.spec}
	var trace tracing.TraceID
	if tr != nil {
		trace = tr.NewTraceID()
		req.Trace = trace.String()
	}
	cl, err := serve.Dial("tcp", addr, req)
	s.admitted = time.Now()
	if err != nil {
		s.err, s.progEnd, s.end = err, s.admitted, s.admitted
		return s
	}
	err = stream(cl.Conn(), p)
	s.progEnd = time.Now()
	if err != nil {
		cl.Close()
		s.err, s.end = err, s.progEnd
		return s
	}
	if cw, ok := cl.Conn().(interface{ CloseWrite() error }); ok {
		cw.CloseWrite()
	}
	s.verdict, s.err = cl.Finish(time.Minute)
	s.end = time.Now()
	s.spans = tr.Spans(trace)
	return s
}

// daemon is one in-process gompaxd on loopback with its store directory.
type daemon struct {
	d    *serve.Daemon
	addr string
	dir  string
}

func startDaemon(specs map[string]string, dir string, tr *tracing.Tracer) (*daemon, error) {
	d, err := serve.New(serve.Config{Specs: specs, MaxSessions: maxSessions, StorePath: dir, Tracer: tr})
	if err != nil {
		return nil, err
	}
	a, err := d.ListenTCP("127.0.0.1:0")
	if err != nil {
		d.Close()
		return nil, err
	}
	return &daemon{d: d, addr: a.String(), dir: dir}, nil
}

func (d *daemon) stop() error {
	err := d.d.Drain(10 * time.Second)
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

// setUp times one set-up: compile the programs and specs, open the
// store, start the daemon, up to the first admitted session. That first
// session then runs to completion outside the timed part. It returns
// when the set-up began and ended.
func setUp(w workload, list []session, root string, k int) ([]prepared, *daemon, time.Time, time.Time, error) {
	runtime.GC()
	t0 := time.Now()
	prep, err := compileAll(list)
	if err != nil {
		return nil, nil, t0, t0, err
	}
	d, err := startDaemon(w.specs, filepath.Join(root, fmt.Sprintf("store-%d", k)), nil)
	if err != nil {
		return nil, nil, t0, t0, err
	}
	s := runSession(d.addr, &prep[0], nil)
	if s.err != nil {
		d.stop()
		return nil, nil, t0, t0, fmt.Errorf("first session: %w", s.err)
	}
	return prep, d, t0, s.admitted, nil
}

// window is the outcome of one timed closed-loop window.
type window struct {
	samples  []sample
	seconds  float64
	allocs   uint64 // heap bytes allocated
	steps    uint64 // interpreter steps executed
	gcCycles uint32
	gcCPU    float64 // GC CPU seconds
	totalCPU float64 // all CPU seconds
	slow     float64 // host slowdown over the window (host.go)
	failed   int
	rejects  int
}

// drive runs the closed-loop clients over the list, starting at index 0
// and cycling, until the deadline or, when limit > 0, until limit
// sessions have started; sessions already started complete.
func drive(addr string, list []prepared, dur time.Duration, limit int, tr *tracing.Tracer) []sample {
	var next atomic.Int64
	deadline := time.Now().Add(dur)
	out := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if limit > 0 && i >= limit {
					return
				}
				out[c] = append(out[c], runSession(addr, &list[i%len(list)], tr))
			}
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, o := range out {
		all = append(all, o...)
	}
	return all
}

// measure runs one settled, timed window: a warm-up, a GC, then the
// clients for dur, with the host probe running.
func measure(d *daemon, list []prepared, dur, warm time.Duration, tr *tracing.Tracer) window {
	drive(d.addr, list, warm, 0, tr)
	runtime.GC()

	cpuMetrics := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	metrics.Read(cpuMetrics)
	gc0, cpu0 := cpuMetrics[0].Value.Float64(), cpuMetrics[1].Value.Float64()
	t0 := time.Now()
	probe := startProbe()

	samples := drive(d.addr, list, dur, 0, tr)
	probe.stop()

	var end time.Time
	for _, s := range samples {
		if s.end.After(end) {
			end = s.end
		}
	}
	runtime.ReadMemStats(&m1)
	metrics.Read(cpuMetrics)
	w := window{
		samples:  samples,
		seconds:  end.Sub(t0).Seconds(),
		allocs:   m1.TotalAlloc - m0.TotalAlloc,
		gcCycles: m1.NumGC - m0.NumGC,
		gcCPU:    cpuMetrics[0].Value.Float64() - gc0,
		totalCPU: cpuMetrics[1].Value.Float64() - cpu0,
		slow:     probe.slowdown(t0, end),
	}
	w.failed, w.rejects = tally(samples)
	for i := range samples {
		samples[i].slow = probe.slowdown(samples[i].start, samples[i].end)
		w.steps += samples[i].p.steps
	}
	return w
}

// tally counts failed and rejected sessions, reporting each failure on
// standard error.
func tally(samples []sample) (failed, rejects int) {
	for _, s := range samples {
		if s.failed {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: FAILED %s (spec %s, chaos %t): verdict %q, expected %q, err %v\n",
				s.p.kind, s.p.spec, s.p.chaos != 0, s.verdict.Verdict, s.p.expect, s.err)
		}
		var rej *serve.RejectError
		if errors.As(s.err, &rej) {
			rejects++
		}
	}
	return failed, rejects
}

// heapPass serves a fixed number of sessions on a fresh daemon and
// returns the post-GC live heap peak over them with the sessions. The
// count is fixed rather than the time because the daemon keeps every
// stored record in memory: over a timed window a faster daemon would
// hold more records and read as a larger heap.
func heapPass(w workload, list []prepared, root string, sessions int) (uint64, []sample, error) {
	d, err := startDaemon(w.specs, filepath.Join(root, "store-heap"), nil)
	if err != nil {
		return 0, nil, err
	}
	runtime.GC()
	stop := make(chan struct{})
	peak := make(chan uint64)
	go func() { peak <- livePeak(stop) }()
	samples := drive(d.addr, list, heapPassTimeout, sessions, nil)
	close(stop)
	return <-peak, samples, d.stop()
}

// livePeak samples the post-GC live heap once per GC cycle until stop
// closes, and returns the 95th percentile over the cycles: a peak that
// does not hinge on one cycle landing on two sessions' widest levels.
func livePeak(stop <-chan struct{}) uint64 {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	last := s[0].Value.Uint64()
	var live []float64
	t := time.NewTicker(2 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			metrics.Read(s)
			if len(live) == 0 {
				live = append(live, float64(s[1].Value.Uint64()))
			}
			return uint64(percentile(live, 0.95))
		case <-t.C:
		}
		metrics.Read(s)
		if c := s[0].Value.Uint64(); c != last {
			last = c
			live = append(live, float64(s[1].Value.Uint64()))
		}
	}
}

// percentile is the linearly interpolated q-quantile of xs (sorted in
// place).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

// pick collects one value per completed session.
func pick(samples []sample, f func(sample) float64) []float64 {
	out := make([]float64, 0, len(samples))
	for _, s := range samples {
		if s.err == nil {
			out = append(out, f(s))
		}
	}
	return out
}

// endToEnd computes the user-facing metrics of a window, every timing
// at reference host speed.
func endToEnd(w window, setup float64) []metric {
	return []metric{
		{"setup_s", setup, "s"},
		{"sessions_per_s", float64(len(w.samples)) / w.seconds * w.slow, "1/s"},
		{"program_ms_p50", percentile(pick(w.samples, atRef(sample.programMs)), 0.5), "ms"},
		{"verdict_lag_ms_p50", percentile(pick(w.samples, atRef(sample.lagMs)), 0.5), "ms"},
		{"verdict_lag_ms_p90", percentile(pick(w.samples, atRef(sample.lagMs)), 0.9), "ms"},
		{"alloc_bytes_per_event", float64(w.allocs) / float64(w.steps), "B"},
	}
}

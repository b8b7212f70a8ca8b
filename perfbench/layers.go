package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"gompax/internal/clock"
	"gompax/internal/event"
	"gompax/internal/instrument"
	"gompax/internal/interp"
	"gompax/internal/logic"
	"gompax/internal/msg"
	"gompax/internal/mvc"
	"gompax/internal/observer"
	"gompax/internal/predict"
	"gompax/internal/sched"
	"gompax/internal/telemetry"
	"gompax/internal/telemetry/tracing"
	"gompax/internal/wire"
)

// ledger is the traced run. It measures an untraced and a traced
// closed-loop window on the same list (their throughput ratio is the
// tracing overhead), then runs one client alone on the traced daemon and
// replays each of its sessions through every layer by itself, timing the
// benchmark's own calls into each layer's public functions.
func ledger(w workload, prep []prepared, d *daemon, root string, dur, warm time.Duration) (result, error) {
	plain := measure(d, prep, dur/2, warm, nil)
	if err := d.stop(); err != nil {
		return result{}, err
	}
	tr := tracing.New(tracing.Options{Process: "gompaxd"})
	td, err := startDaemon(w.specs, filepath.Join(root, "store-traced"), tr)
	if err != nil {
		return result{}, err
	}
	traced := measure(td, prep, dur/2, warm, tr)

	var resync int
	for _, s := range traced.samples {
		if rec, ok := td.d.Store().Get(s.verdict.ID); ok && s.err == nil {
			resync += rec.Wire.CorruptFrames + rec.Wire.Gaps + rec.Wire.Duplicates
		}
	}
	var lt layerTotals
	single, err := lt.replay(td, prep, tr, dur/3)
	singleFailed, _ := tally(single)
	bytesPerRecord := float64(td.d.Store().Bytes()) / float64(td.d.Store().Len())
	if serr := td.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return result{}, err
	}

	span := func(name string) func(sample) float64 {
		return func(s sample) float64 { return spanMs(s.spans, name) }
	}
	sps := func(win window) float64 { return float64(len(win.samples)) / win.seconds }
	out := []metric{
		{"interp.ns_per_step", per(lt.raw, lt.steps), "ns"},
		{"instrument.ns_per_step", per(lt.instr, lt.steps), "ns"},
		{"instrument.overhead_x", per(lt.instr, lt.raw), "x"},
		{"instrument.msgs_per_step", per(lt.msgs, lt.steps), "count"},
		{"instrument.allocs_per_step", per(lt.allocs, lt.steps), "count"},
		{"clock.join_ns", per(lt.join, lt.clockOps), "ns"},
		{"clock.tick_ns", per(lt.tick, lt.clockOps), "ns"},
		{"clock.leq_ns", per(lt.leq, lt.clockOps), "ns"},
		{"clock.nodes_per_msg", per(lt.nodes, lt.msgs), "count"},
		{"wire.bytes_per_msg", per(lt.bytes, lt.msgs), "B"},
		{"wire.encode_ns_per_msg", per(lt.encode, lt.msgs), "ns"},
		{"wire.decode_ns_per_frame", per(lt.decode, lt.frames), "ns"},
		{"wire.resync_frames_per_session", per(resync, len(traced.samples)), "count"},
		{"observer.drain_ns_per_msg", per(lt.drain, lt.msgs), "ns"},
		{"lattice.computation_ns_per_msg", per(lt.comp, lt.msgs), "ns"},
		{"predict.online_ns_per_cut", per(lt.online, lt.cuts), "ns"},
		{"predict.offline_ns_per_cut", per(lt.offline, lt.cuts), "ns"},
		{"predict.cuts_per_session", per(lt.cuts, lt.sessions), "count"},
		{"predict.max_width", float64(lt.maxWidth), "count"},
		{"predict.new_cut_frac", per(lt.cuts-lt.sessions, lt.edges), "frac"},
		{"monitor.pairs_per_cut", per(lt.pairs, lt.cuts), "count"},
		{"monitor.step_ns", per(lt.monitor, lt.monitorSteps), "ns"},
		{"msg.analyze_ns_per_chan_msg", per(lt.msgAnalyze, lt.chanMsgs), "ns"},
		{"serve.admit_ms_p50", percentile(pick(traced.samples, func(s sample) float64 { return ms(s.admitted.Sub(s.start)) }), 0.5), "ms"},
		{"serve.queue_wait_ms_p50", percentile(pick(traced.samples, span("serve.admission")), 0.5), "ms"},
		{"serve.rejects", float64(plain.rejects + traced.rejects), "count"},
		{"store.accept_journal_ms_p50", percentile(pick(traced.samples, span("serve.accept-journal")), 0.5), "ms"},
		{"store.verdict_journal_ms_p50", percentile(pick(traced.samples, span("serve.verdict-journal")), 0.5), "ms"},
		{"store.bytes_per_record", bytesPerRecord, "B"},
		{"tracing.overhead_frac", 1 - sps(traced)/sps(plain), "frac"},
		{"runtime.gc_cpu_frac", plain.gcCPU / plain.totalCPU, "frac"},
		{"runtime.gc_cycles_per_session", per(plain.gcCycles, len(plain.samples)), "count"},
	}
	out = append(out, lt.accounting(single)...)
	return result{
		metrics:   out,
		attempted: len(plain.samples) + len(traced.samples) + len(single),
		failed:    plain.failed + traced.failed + singleFailed,
		timed:     len(plain.samples) + len(traced.samples),
		sessionMs: percentile(pick(plain.samples, sample.totalMs), 0.5),
		slow:      plain.slow,
	}, nil
}

type number interface {
	~int | ~uint32 | ~uint64 | ~int64 | ~float64
}

// per is a/b as a float, 0 when b is 0.
func per[A, B number](a A, b B) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// findSpan returns the named span of a session's span tree, or nil.
func findSpan(spans []tracing.SpanData, name string) *tracing.SpanData {
	for i := range spans {
		if spans[i].Name == name {
			return &spans[i]
		}
	}
	return nil
}

// spanMs is the duration of the named span, 0 when it is missing.
func spanMs(spans []tracing.SpanData, name string) float64 {
	if sp := findSpan(spans, name); sp != nil {
		return ms(sp.End.Sub(sp.Start))
	}
	return 0
}

// layerTotals sums the replayed layers' work and time over sessions.
type layerTotals struct {
	sessions, steps, msgs, frames, chanMsgs, bytes, allocs, nodes int
	cuts, pairs, edges, maxWidth, clockOps, monitorSteps          int

	raw, instr, encode, decode, drain, comp, online, offline time.Duration
	msgAnalyze, join, tick, leq, monitor                     time.Duration

	// serve and store self times, from the daemon's spans
	serve, store time.Duration
}

// replay runs one client alone over the list until the budget is spent
// (at least two sessions, at most one pass) and replays each of its
// sessions through every layer by itself.
func (lt *layerTotals) replay(d *daemon, prep []prepared, tr *tracing.Tracer, budget time.Duration) ([]sample, error) {
	var out []sample
	start := time.Now()
	for i := range prep {
		if i >= 2 && time.Since(start) > budget {
			break
		}
		s := runSession(d.addr, &prep[i], tr)
		out = append(out, s)
		if s.err != nil {
			return out, fmt.Errorf("single-client session %s: %w", prep[i].kind, s.err)
		}
		if err := lt.layers(&prep[i]); err != nil {
			return out, fmt.Errorf("replaying %s: %w", prep[i].kind, err)
		}
		// The daemon's spans give serve and store: the session span minus
		// its journals and the observer's ingest, plus the connection and
		// handshake before the session span opens.
		journals := spanDur(s.spans, "serve.accept-journal") + spanDur(s.spans, "serve.verdict-journal")
		lt.store += journals
		if root := findSpan(s.spans, "serve.session"); root != nil {
			lt.serve += nonNeg(root.End.Sub(root.Start) - journals - spanDur(s.spans, "observer.session"))
			lt.serve += nonNeg(root.Start.Sub(s.start))
		}
	}
	return out, nil
}

func spanDur(spans []tracing.SpanData, name string) time.Duration {
	return time.Duration(spanMs(spans, name) * 1e6)
}

func nonNeg(d time.Duration) time.Duration {
	if d < 0 {
		return 0
	}
	return d
}

// layers replays one session through each layer alone.
func (lt *layerTotals) layers(p *prepared) error {
	threads := len(p.code.Threads)

	// interp + sched: the uninstrumented run.
	t0 := time.Now()
	res, err := sched.Run(interp.NewMachine(p.code, interp.NopHooks{}), sched.NewRandom(p.sched), 0)
	lt.raw += time.Since(t0)
	if err != nil {
		return err
	}

	// instrument + mvc (+ clock): the same schedule under Algorithm A.
	col := &mvc.Collector{}
	a0 := heapObjects()
	t0 = time.Now()
	in := instrument.New(threads, p.policy, col)
	if _, err := sched.Run(interp.NewMachine(p.code, in), sched.NewRandom(p.sched), 0); err != nil {
		return err
	}
	lt.instr += time.Since(t0)
	lt.allocs += int(heapObjects() - a0)
	msgs := col.Messages

	// clock: Join, Tick and Leq on the session's own clocks.
	table := in.Tracker().Table()
	t0 = time.Now()
	for i := 1; i < len(msgs); i++ {
		table.Join(msgs[i-1].Clock, msgs[i].Clock)
	}
	lt.join += time.Since(t0)
	t0 = time.Now()
	for i := 1; i < len(msgs); i++ {
		table.Tick(msgs[i-1].Clock, msgs[i].Event.Thread)
	}
	lt.tick += time.Since(t0)
	t0 = time.Now()
	for i := 1; i < len(msgs); i++ {
		leqSink = clock.Leq(msgs[i-1].Clock, msgs[i].Clock)
	}
	lt.leq += time.Since(t0)
	lt.clockOps += max(len(msgs)-1, 0)
	lt.nodes += table.Size()

	// wire: encode the session, then decode its frames.
	var buf bytes.Buffer
	t0 = time.Now()
	if err := encodeSession(&buf, threads, p.initial, msgs); err != nil {
		return err
	}
	lt.encode += time.Since(t0)
	enc := buf.Bytes()
	t0 = time.Now()
	frames, err := decodeFrames(enc)
	lt.decode += time.Since(t0)
	if err != nil {
		return err
	}

	// observer: drain the session; lattice: reconstruct the computation.
	t0 = time.Now()
	sess, err := observer.Drain(wire.NewReceiver(bytes.NewReader(enc)))
	lt.drain += time.Since(t0)
	if err != nil {
		return err
	}
	t0 = time.Now()
	comp, err := sess.Computation()
	lt.comp += time.Since(t0)
	if err != nil {
		return err
	}

	// predict (+ monitor): the online analyzer the daemon runs, then the
	// offline analyzer on the same computation.
	e0 := counterValue("gompax_lattice_edges_total")
	t0 = time.Now()
	on, err := predict.NewOnline(p.prog, sess.Hello.Initial, threads, predict.Options{Lossy: true})
	if err != nil {
		return err
	}
	var chanMsgs []event.Message
	for _, m := range sess.Messages {
		if m.Event.Kind.IsChannel() {
			chanMsgs = append(chanMsgs, m)
		}
		if err := on.Feed(m); err != nil {
			return err
		}
	}
	for i := 0; i < threads; i++ {
		if err := on.FinishThread(i); err != nil {
			return err
		}
	}
	ores, err := on.Close()
	lt.online += time.Since(t0)
	if err != nil {
		return err
	}
	lt.edges += int(counterValue("gompax_lattice_edges_total") - e0)
	t0 = time.Now()
	if _, err := predict.Analyze(p.prog, comp, predict.Options{}); err != nil {
		return err
	}
	lt.offline += time.Since(t0)

	// msg: the message-passing analyses over the channel events.
	if len(chanMsgs) > 0 {
		t0 = time.Now()
		msg.Analyze(chanMsgs, msg.Options{Complete: true, Predictive: true})
		lt.msgAnalyze += time.Since(t0)
	}

	// monitor: one monitor stepped along the observed run's states.
	states := []logic.State{sess.Hello.Initial}
	for _, m := range msgs {
		if !m.Event.Kind.IsChannel() {
			states = append(states, states[len(states)-1].With(m.Event.Var, m.Event.Value))
		}
	}
	mon := p.prog.NewMonitor()
	t0 = time.Now()
	for _, st := range states {
		if _, err := mon.Step(st); err != nil {
			return err
		}
	}
	lt.monitor += time.Since(t0)
	lt.monitorSteps += len(states)

	lt.sessions++
	lt.steps += int(res.Events)
	lt.msgs += len(msgs)
	lt.frames += frames
	lt.chanMsgs += len(chanMsgs)
	lt.bytes += len(enc)
	lt.cuts += ores.Stats.Cuts
	lt.pairs += ores.Stats.Pairs
	lt.maxWidth = max(lt.maxWidth, ores.Stats.MaxWidth)
	return nil
}

// accounting reports how the single-client layer self times account for
// the single-client session time: each layer's share of the summed self
// time, and the residual (session time not covered, negative when the
// client's run and the daemon's analysis overlap).
func (lt *layerTotals) accounting(single []sample) []metric {
	self := []struct {
		layer string
		d     time.Duration
	}{
		{"interp", lt.raw},
		{"instrument", nonNeg(lt.instr - lt.raw)},
		{"wire", lt.encode + lt.decode},
		{"observer", nonNeg(lt.drain - lt.decode)},
		{"predict", lt.online},
		{"msg", lt.msgAnalyze},
		{"serve", lt.serve},
		{"store", lt.store},
	}
	var session, total time.Duration
	for _, s := range single {
		session += s.end.Sub(s.start)
	}
	lead := 0
	for i, l := range self {
		total += l.d
		if l.d > self[lead].d {
			lead = i
		}
	}
	out := []metric{
		{"ledger.single_session_ms", per(ms(session), len(single)), "ms"},
		{"ledger.residual_pct", 100 * per(session-total, session), "%"},
	}
	for _, l := range self {
		out = append(out, metric{"ledger.share_" + l.layer, per(l.d, total), "frac"})
	}
	fmt.Fprintf(os.Stderr, "ledger: %d single-client sessions, self time led by %s\n", len(single), self[lead].layer)
	return out
}

// encodeSession writes a whole session (hello, messages, thread-done
// notices, bye) as the streaming instrumentor would.
func encodeSession(w io.Writer, threads int, initial logic.State, msgs []event.Message) error {
	s := wire.NewSender(w)
	if err := s.SendHello(wire.Hello{Threads: threads, Initial: initial}); err != nil {
		return err
	}
	for _, m := range msgs {
		if err := s.SendMessage(m); err != nil {
			return err
		}
	}
	for i := 0; i < threads; i++ {
		if err := s.SendThreadDone(i); err != nil {
			return err
		}
	}
	return s.SendBye()
}

// decodeFrames reads every frame of an encoded session.
func decodeFrames(b []byte) (int, error) {
	r := wire.NewReceiver(bytes.NewReader(b))
	n := 0
	for {
		_, err := r.Next()
		if errors.Is(err, wire.ErrClosed) || errors.Is(err, io.EOF) {
			return n + 1, nil
		}
		if err != nil {
			return n, err
		}
		n++
	}
}

// leqSink keeps the timed Leq calls from being optimized away.
var leqSink bool

// heapObjects is the cumulative count of heap objects allocated.
func heapObjects() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// counterValue reads an unlabelled counter from the process telemetry
// registry's exposition.
func counterValue(name string) uint64 {
	sc := bufio.NewScanner(strings.NewReader(telemetry.Default().Expose()))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			n, _ := strconv.ParseUint(v, 10, 64)
			return n
		}
	}
	return 0
}

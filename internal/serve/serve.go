// Package serve is gompaxd's serving layer: a long-running daemon
// that accepts many concurrent wire sessions (each a full
// Hello→Messages→Bye stream from an instrumented program), analyzes
// each against a named spec with the online predictive analyzer, and
// records every outcome in a durable segmented results store
// queryable over HTTP.
//
// The paper's architecture (Fig. 4) is one instrumented program
// feeding one observer; this package is the centralized-collector
// generalization: N programs feeding one observer process through
// admission control.
//
// # Admission control
//
// A connection is handshaken first (a short-lived goroutine reads the
// one-line greeting under Config.HandshakeTimeout), which names the
// spec and the admission tenant. It then passes the tenant's quota —
// a token bucket (rate/burst) and an inflight cap from Config.Tenants
// — and waits in the tenant's bounded queue (Config.QueueDepth per
// tenant) without consuming a goroutine. Workers (Config.MaxSessions)
// pull sessions by smooth weighted round-robin across tenants, so one
// flooding tenant cannot starve the rest. When a quota is exceeded,
// the queue is full, a queued connection waits past
// Config.QueueTimeout, or the daemon is draining, the client gets an
// explicit REJECT line (see proto.go) — with a retry-after hint when
// retrying could help — instead of a hang or a silent close.
//
// # Crash safety
//
// Before a client is told OK, its session's accepted intent is
// journaled in the results store; the verdict record that supersedes
// it is journaled before the VERDICT trailer is sent. A daemon that
// dies uncleanly therefore never loses an acknowledged verdict, and
// every session a client believed was running is reported as
// interrupted by the next OpenStore (see store.go and the crashpoints
// package for the fault-injection harness that proves this).
//
// # Per-session limits
//
// Each admitted session runs with the fault-tolerant machinery from
// the lower layers: a resync wire receiver, lossy online analysis,
// an idle timeout for stalled transports, a MaxCuts/MaxWidth budget
// (predict.ErrBudget kills runaway lattices while keeping the partial
// result), and an external cancellation context so a drain deadline
// can abort stuck sessions without leaking their goroutines.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gompax/internal/logic"
	"gompax/internal/monitor"
	"gompax/internal/observer"
	"gompax/internal/predict"
	"gompax/internal/serve/crashpoints"
	"gompax/internal/telemetry/tracing"
	"gompax/internal/wire"
)

// Config configures a Daemon.
type Config struct {
	// Specs maps spec names to property formulas. Every session names
	// a spec (or relies on DefaultSpec).
	Specs map[string]string
	// DefaultSpec is the spec used by sessions that name none. Empty
	// with exactly one spec registered means that spec.
	DefaultSpec string
	// MaxSessions sizes the analysis worker pool — the maximum number
	// of sessions analyzed concurrently. Default 4.
	MaxSessions int
	// QueueDepth bounds each tenant's admission queue of connections
	// waiting for a worker. Default 16.
	QueueDepth int
	// QueueTimeout bounds how long a connection may wait in the
	// admission queue before being rejected. Default 10s.
	QueueTimeout time.Duration
	// Tenants maps tenant names to admission quotas. Tenants not
	// listed here (including "default") are unlimited.
	Tenants map[string]TenantLimits
	// MaxCuts and MaxWidth are the per-session analysis budget
	// (predict.Options); 0 = unlimited.
	MaxCuts  int
	MaxWidth int
	// Workers is the per-session lattice exploration pool size
	// (predict.Options.Workers). Sessions already run concurrently, so
	// the default 0 (sequential per session) is usually right.
	Workers int
	// IdleTimeout abandons a session whose transport goes silent.
	// Default 30s.
	IdleTimeout time.Duration
	// HandshakeTimeout bounds the wait for the client greeting after
	// the connection is accepted. Default 5s.
	HandshakeTimeout time.Duration
	// Counterexamples records a violating run per violation (stored in
	// the session record).
	Counterexamples bool
	// StorePath is the segmented results store directory ("" =
	// memory-only). A pre-existing single-file JSONL store at this
	// path is migrated in place on open.
	StorePath string
	// SegmentBytes, Fsync and FsyncInterval tune the store's segment
	// rotation size and fsync policy (zero values take the segstore
	// defaults: 4 MiB segments, interval fsync every 100ms).
	SegmentBytes  int64
	Fsync         string
	FsyncInterval time.Duration
	// Tracer, when non-nil, records an end-to-end span tree per session
	// in its flight recorder, served at /sessions/{id}/trace. Sessions
	// whose handshake carried a trace= id continue the client's trace;
	// legacy sessions get a daemon-minted id. Nil disables tracing at
	// zero cost (every span call is a nil no-op).
	Tracer *tracing.Tracer
}

func (c *Config) fillDefaults() {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 10 * time.Second
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 30 * time.Second
	}
	if c.HandshakeTimeout <= 0 {
		c.HandshakeTimeout = 5 * time.Second
	}
}

// spec is a compiled property registered under a name.
type spec struct {
	name    string
	formula string
	prog    *monitor.Program
}

// pending is one handshaken connection in the admission queue. claimed
// arbitrates between the worker that pops it and the queue-timeout
// timer: exactly one of them owns the connection.
type pending struct {
	conn    net.Conn
	sp      *spec
	tenant  string
	trace   tracing.TraceID // client-minted trace id (0 = none sent)
	enq     time.Time
	timer   *time.Timer
	claimed atomic.Bool
	ts      *tenantState // set by admitter.next for release
}

func (p *pending) claim() bool { return p.claimed.CompareAndSwap(false, true) }

// Daemon is a running multi-session analysis daemon.
type Daemon struct {
	cfg   Config
	specs map[string]*spec
	store *Store
	adm   *admitter

	listeners []net.Listener
	lnMu      sync.Mutex
	lnWG      sync.WaitGroup // accept loops
	hsWG      sync.WaitGroup // per-connection handshake goroutines
	workWG    sync.WaitGroup // analysis workers
	draining  atomic.Bool
	drainOnce sync.Once
	drainErr  error
	ctx       context.Context // cancelled to abort in-flight sessions
	cancel    context.CancelFunc

	// Daemon-local tallies for /summary (the telemetry counters are
	// process-global and would mix daemons in one process, e.g. tests).
	accepted  atomic.Uint64
	completed atomic.Uint64
	cancelled atomic.Uint64
	active    atomic.Int64
	rejMu     sync.Mutex
	rejects   map[string]uint64

	// live indexes the sessions currently being analyzed (see live.go).
	liveMu sync.Mutex
	live   map[string]*liveSession
}

// New compiles the spec registry, opens the results store (running
// crash recovery), and starts the analysis worker pool. Listeners are
// attached with ListenTCP / ListenUnix / ServeListener.
func New(cfg Config) (*Daemon, error) {
	cfg.fillDefaults()
	if len(cfg.Specs) == 0 {
		return nil, fmt.Errorf("serve: no specs configured")
	}
	specs := make(map[string]*spec, len(cfg.Specs))
	for name, formula := range cfg.Specs {
		f, err := logic.ParseFormula(formula)
		if err != nil {
			return nil, fmt.Errorf("serve: spec %q: %w", name, err)
		}
		prog, err := monitor.Compile(f)
		if err != nil {
			return nil, fmt.Errorf("serve: spec %q: %w", name, err)
		}
		specs[name] = &spec{name: name, formula: formula, prog: prog}
	}
	if cfg.DefaultSpec == "" && len(specs) == 1 {
		for name := range specs {
			cfg.DefaultSpec = name
		}
	}
	if cfg.DefaultSpec != "" && specs[cfg.DefaultSpec] == nil {
		return nil, fmt.Errorf("serve: default spec %q not registered", cfg.DefaultSpec)
	}
	store, err := OpenStoreOptions(StoreOptions{
		Dir:           cfg.StorePath,
		SegmentBytes:  cfg.SegmentBytes,
		Fsync:         cfg.Fsync,
		FsyncInterval: cfg.FsyncInterval,
	})
	if err != nil {
		return nil, err
	}
	if n := store.RecoveredOrphans(); n > 0 {
		dlog.Warn("recovered interrupted sessions from an unclean stop", "orphans", n)
	}
	ctx, cancel := context.WithCancel(context.Background())
	d := &Daemon{
		cfg:     cfg,
		specs:   specs,
		store:   store,
		adm:     newAdmitter(cfg.Tenants, cfg.QueueDepth),
		ctx:     ctx,
		cancel:  cancel,
		rejects: map[string]uint64{},
	}
	d.publishLiveStatus()
	for i := 0; i < cfg.MaxSessions; i++ {
		d.workWG.Add(1)
		go d.worker()
	}
	return d, nil
}

// Tracer exposes the daemon's flight recorder (nil when tracing is
// off) for the HTTP trace endpoint and tests.
func (d *Daemon) Tracer() *tracing.Tracer { return d.cfg.Tracer }

// Store exposes the results store (read-only use expected).
func (d *Daemon) Store() *Store { return d.store }

// SpecNames returns the registered spec names, sorted.
func (d *Daemon) SpecNames() []string {
	names := make([]string, 0, len(d.specs))
	for name := range d.specs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ListenTCP binds a TCP address (":0" for an ephemeral port) and
// starts accepting sessions on it. Returns the bound address.
func (d *Daemon) ListenTCP(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	d.ServeListener(ln)
	return ln.Addr(), nil
}

// ListenUnix binds a unix socket path and starts accepting sessions.
func (d *Daemon) ListenUnix(path string) (net.Addr, error) {
	ln, err := net.Listen("unix", path)
	if err != nil {
		return nil, err
	}
	d.ServeListener(ln)
	return ln.Addr(), nil
}

// ServeListener starts accepting sessions on an already-bound
// listener. The daemon owns it from here on.
func (d *Daemon) ServeListener(ln net.Listener) {
	d.lnMu.Lock()
	d.listeners = append(d.listeners, ln)
	d.lnMu.Unlock()
	d.lnWG.Add(1)
	go d.acceptLoop(ln)
}

func (d *Daemon) acceptLoop(ln net.Listener) {
	defer d.lnWG.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed (drain) or fatal
		}
		if d.draining.Load() {
			d.reject(conn, ReasonDraining, "", 0)
			continue
		}
		// The handshake is read before admission (the tenant key lives
		// in the greeting), in a short-lived goroutine bounded by
		// HandshakeTimeout so a slow-greeting client cannot stall the
		// accept loop.
		d.hsWG.Add(1)
		go d.handshake(conn)
	}
}

// handshake reads the client greeting, resolves the spec and tenant,
// and offers the connection to the admission scheduler.
func (d *Daemon) handshake(conn net.Conn) {
	defer d.hsWG.Done()
	conn.SetReadDeadline(time.Now().Add(d.cfg.HandshakeTimeout))
	line, err := readLine(conn, handshakeMax)
	if err != nil {
		d.reject(conn, ReasonBadHandshake, "", 0)
		return
	}
	fields := strings.Fields(line)
	if len(fields) == 0 || fields[0] != protoGreeting {
		d.reject(conn, ReasonBadHandshake, "", 0)
		return
	}
	kv := parseKV(fields[1:])
	specName := kv["spec"]
	if specName == "" {
		specName = d.cfg.DefaultSpec
	}
	sp := d.specs[specName]
	if sp == nil {
		d.reject(conn, ReasonUnknownSpec, kv["tenant"], 0)
		return
	}
	conn.SetReadDeadline(time.Time{})

	// Normalize the tenant before the timeout timer can read it
	// concurrently ("" → the default tenant).
	tenant := kv["tenant"]
	if tenant == "" {
		tenant = "default"
	}
	p := &pending{conn: conn, sp: sp, tenant: tenant, enq: time.Now()}
	// The trace key is advisory: a missing or unparsable id falls back
	// to the pre-tracing behavior, it never rejects the session.
	if tr := kv["trace"]; tr != "" {
		if id, err := tracing.ParseTraceID(tr); err == nil {
			p.trace = id
		} else {
			dlog.Debug("ignoring malformed handshake trace id", "trace", tr, "err", err)
		}
	}
	p.timer = time.AfterFunc(d.cfg.QueueTimeout, func() {
		if p.claim() {
			d.reject(conn, ReasonQueueTimeout, p.tenant, 2*time.Second)
		}
	})
	if reason, retryAfter := d.adm.offer(p); reason != "" {
		p.timer.Stop()
		d.reject(conn, reason, p.tenant, retryAfter)
	}
}

// reject sends the explicit reject line (with a retry-after hint when
// a retry could help) and closes the connection.
func (d *Daemon) reject(conn net.Conn, reason, tenant string, retryAfter time.Duration) {
	if tenant == "" {
		tenant = "default"
	}
	mRejected.With(reason).Inc()
	mRejectedTenant.With(reason, tenant).Inc()
	d.rejMu.Lock()
	d.rejects[reason]++
	d.rejMu.Unlock()
	dlog.Info("session rejected", "reason", reason, "tenant", tenant, "remote", remoteOf(conn))
	conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
	if retryAfter > 0 {
		fmt.Fprintf(conn, "REJECT reason=%s retry-after=%s\n", reason, retryAfter)
	} else {
		fmt.Fprintf(conn, "REJECT reason=%s\n", reason)
	}
	conn.Close()
}

func remoteOf(conn net.Conn) string {
	if a := conn.RemoteAddr(); a != nil {
		return a.String()
	}
	return ""
}

func (d *Daemon) worker() {
	defer d.workWG.Done()
	for {
		p := d.adm.next()
		if p == nil {
			return // admitter closed and drained
		}
		mAdmissionWait.With(p.tenant).Observe(uint64(time.Since(p.enq)))
		d.handle(p)
		d.adm.release(p.ts)
	}
}

// handle runs one admitted session end to end: accepted-intent
// journal, OK line, wire stream analysis, verdict journal, trailer.
func (d *Daemon) handle(p *pending) {
	conn := p.conn
	defer conn.Close()

	id := d.store.NextID()
	start := time.Now()

	// Trace continuation: the root span starts at enqueue time so the
	// queue wait is inside the same trace the client minted. Legacy
	// clients (no trace= key) get a daemon-minted id while a tracer is
	// configured, so the flight recorder covers them too. With no
	// tracer every span below is nil and free.
	traceID := p.trace
	if traceID == 0 && d.cfg.Tracer != nil {
		traceID = d.cfg.Tracer.NewTraceID()
	}
	var traceHex string
	if traceID != 0 {
		traceHex = traceID.String()
	}
	root := d.cfg.Tracer.ContinueTraceAt(traceID, "serve.session", p.enq)
	root.SetAttr("id", id)
	root.SetAttr("spec", p.sp.name)
	root.SetAttr("tenant", p.tenant)
	root.SetAttr("remote", remoteOf(conn))
	defer root.End()
	// The admission span covers enqueue → worker claim (this moment).
	adm := root.ChildAt("serve.admission", p.enq)
	adm.EndAt(start)

	// Journal the admission intent BEFORE acking: every session whose
	// client saw OK is recoverable as interrupted after a crash.
	jsp := root.Child("serve.accept-journal")
	err := d.store.Accepted(AcceptedInfo{
		ID: id, Spec: p.sp.name, Formula: p.sp.formula,
		Tenant: p.tenant, Remote: remoteOf(conn), Start: start.UTC(),
		Trace: traceHex,
	})
	jsp.End()
	if err != nil {
		dlog.Error("accepted-intent journal failed; refusing session", "id", id, "err", err)
		d.reject(conn, ReasonOverloaded, p.tenant, time.Second)
		return
	}
	crashpoints.Hit(crashpoints.ServeAcceptedJournaled)
	if _, err := fmt.Fprintf(conn, "OK id=%s\n", id); err != nil {
		dlog.Warn("session lost before admission reply", "id", id, "err", err)
		// The intent is journaled; the verdict below still lands and
		// supersedes it, so the dead client leaves no orphan.
	}
	d.accepted.Add(1)
	mAccepted.Inc()
	d.active.Add(1)
	mActive.Add(1)
	defer func() {
		d.active.Add(-1)
		mActive.Add(-1)
	}()

	// Register the session in the live index so /sessions/{id}/progress
	// and the /statusz "sessions" section can watch the exploration.
	progress := &predict.Progress{}
	untrack := d.trackLive(&liveSession{
		ID: id, Spec: p.sp.name, Tenant: p.tenant,
		Start: start, Trace: traceID, Progress: progress,
	})
	defer untrack()

	// The session context aborts the analysis (drain deadline, daemon
	// stop). The observer reads the connection inline and ends its own
	// blocked read through the read deadline (the contract documented
	// on observer.SessionOptions.Ctx); closing the connection when the
	// context fires also tells the client at once.
	sctx, cancel := context.WithCancel(d.ctx)
	defer cancel()
	unwatch := context.AfterFunc(sctx, func() { conn.Close() })
	defer unwatch()

	r := wire.NewResyncReceiver(conn)
	res, aerr := observer.AnalyzeSession([]*wire.Receiver{r}, p.sp.prog, observer.SessionOptions{
		Predict: predict.Options{
			Lossy:           true,
			MaxCuts:         d.cfg.MaxCuts,
			MaxWidth:        d.cfg.MaxWidth,
			Workers:         d.cfg.Workers,
			Counterexamples: d.cfg.Counterexamples,
			Progress:        progress,
			Span:            root,
		},
		IdleTimeout: d.cfg.IdleTimeout,
		Ctx:         sctx,
	})

	rec := buildRecord(id, p.sp, remoteOf(conn), start, res, aerr, r.Stats())
	rec.Tenant = p.tenant
	rec.TraceID = traceHex
	crashpoints.Hit(crashpoints.ServeVerdictPreJournal)
	vsp := root.Child("serve.verdict-journal")
	if err := d.store.Append(rec); err != nil {
		dlog.Error("results store append failed", "id", id, "err", err)
	}
	vsp.End()
	root.SetAttr("verdict", rec.Verdict)
	crashpoints.Hit(crashpoints.ServeVerdictPostJournal)
	d.completed.Add(1)
	mCompleted.With(rec.Verdict).Inc()
	dlog.Info("session complete", "id", id, "spec", p.sp.name, "tenant", p.tenant,
		"verdict", rec.Verdict, "violations", rec.Violations, "cuts", rec.Stats.Cuts)

	// Detach the context watcher before the trailer write so a drain
	// cancellation between the two cannot race the final line; the
	// record is already durable either way. The root span ends and the
	// session leaves the live index here, not at the deferred calls,
	// so a client that asks the moment it sees VERDICT finds the full
	// session tree recorded and the progress answered from the record.
	root.End()
	untrack()
	unwatch()
	conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	fmt.Fprintf(conn, "VERDICT id=%s verdict=%s violations=%d cuts=%d degraded=%t\n",
		id, rec.Verdict, rec.Violations, rec.Stats.Cuts, rec.Degraded.Any())
}

// verdictFor classifies a finished analysis. Violations take
// precedence: a session that predicted a violation and then blew its
// budget is a violation (with the error preserved in the record).
// Message-passing findings (send-on-closed, lost-message, partial
// deadlock) are violations on equal footing with property violations.
func verdictFor(res predict.Result, err error) string {
	switch {
	case res.Violated() || res.Messaging.Violating():
		return VerdictViolation
	case errors.Is(err, predict.ErrBudget):
		return VerdictBudget
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return VerdictCancelled
	case err != nil:
		return VerdictError
	case res.Degraded.Any():
		return VerdictDegraded
	default:
		return VerdictOK
	}
}

// buildRecord folds one session's outcome into a store record.
func buildRecord(id string, sp *spec, remote string, start time.Time, res predict.Result, aerr error, ws wire.SessionStats) Record {
	rec := Record{
		ID:         id,
		Spec:       sp.name,
		Formula:    sp.formula,
		Remote:     remote,
		Start:      start.UTC(),
		End:        time.Now().UTC(),
		Verdict:    verdictFor(res, aerr),
		Violations: len(res.Violations),
		Stats:      res.Stats,
		Degraded:   res.Degraded,
		Wire:       ws,
		Messaging:  res.Messaging,
	}
	if aerr != nil {
		rec.Error = aerr.Error()
	}
	if len(res.Violations) > 0 && res.Violations[0].Run != nil {
		for _, st := range res.Violations[0].Run.States {
			rec.Counterexample = append(rec.Counterexample, st.String())
		}
	}
	return rec
}

// Drain gracefully shuts the daemon down: stop accepting, reject
// everything still queued, let in-flight analyses finish within the
// grace period, then cancel whatever remains. Idempotent.
func (d *Daemon) Drain(grace time.Duration) error {
	d.drainOnce.Do(func() { d.drainErr = d.drain(grace) })
	return d.drainErr
}

func (d *Daemon) drain(grace time.Duration) error {
	d.draining.Store(true)
	mDrains.Inc()
	dlog.Info("draining", "grace", grace, "active", d.active.Load(), "queued", d.adm.queuedLen())

	d.lnMu.Lock()
	lns := d.listeners
	d.listeners = nil
	d.lnMu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	// Once the accept loops have exited no new handshake goroutines
	// start; once those finish nothing can offer to the admitter
	// again, so closing it collects the final queue state.
	d.lnWG.Wait()
	d.hsWG.Wait()

	// Reject queued connections with the explicit draining reason.
	for _, p := range d.adm.close() {
		if p.claim() {
			p.timer.Stop()
			d.reject(p.conn, ReasonDraining, p.tenant, 0)
		}
	}

	done := make(chan struct{})
	go func() {
		d.workWG.Wait()
		close(done)
	}()
	var cancelled bool
	select {
	case <-done:
	case <-time.After(grace):
		cancelled = true
		n := d.active.Load()
		d.cancelled.Add(uint64(n))
		mCancelled.Add(uint64(n))
		dlog.Warn("drain grace period expired; cancelling in-flight sessions", "active", n)
		d.cancel()
		<-done
	}
	d.cancel() // release the context either way
	err := d.store.Close()
	dlog.Info("drained", "cancelled_sessions", cancelled)
	return err
}

// Close aborts everything immediately: Drain with no grace.
func (d *Daemon) Close() error { return d.Drain(0) }

package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gompax/internal/instrument"
	"gompax/internal/logic"
	"gompax/internal/mtl"
	"gompax/internal/sched"
	"gompax/internal/serve"
	"gompax/internal/telemetry/tracing"
	"gompax/internal/wire"
)

// clientConfig is the gompax client mode: ship a session to a gompaxd
// daemon (-connect) or capture one to a file (-capture) instead of
// analyzing locally.
type clientConfig struct {
	addr        string // daemon address; a path means a unix socket
	spec        string // daemon spec name ("" = daemon default)
	tenant      string // admission tenant ("" = the daemon's default)
	retries     int    // re-submissions after a retryable refusal
	progFile    string
	prop        string
	sessionFile string // captured session to send instead of executing
	captureFile string // write the session here instead of connecting
	seed        int64
	maxEvents   uint64
	chaos       float64
	chaosSeed   int64
	traceOut    string // Chrome trace-event JSON output file ("" = off)
	traceHTTP   string // daemon HTTP address to merge daemon spans from
}

// streamInto executes the instrumented program and writes the session
// byte stream to w, through the fault injector when chaos is set, and
// returns the injector's statistics (zero without chaos).
func (c clientConfig) streamInto(w io.Writer) (stats wire.FaultStats, err error) {
	src, err := os.ReadFile(c.progFile)
	if err != nil {
		return stats, err
	}
	p, err := mtl.Parse(string(src))
	if err != nil {
		return stats, err
	}
	code, err := mtl.Compile(p)
	if err != nil {
		return stats, err
	}
	formula, err := logic.ParseFormula(c.prop)
	if err != nil {
		return stats, err
	}
	policy := instrument.PolicyFor(formula)
	initial, err := instrument.InitialState(code.Prog, formula)
	if err != nil {
		return stats, err
	}
	if c.chaos <= 0 {
		return stats, instrument.RunStreaming(code, policy, initial, sched.NewRandom(c.seed), c.maxEvents, w)
	}
	fw := wire.NewFaultWriter(w, wire.FaultPlan{
		Seed:       c.chaosSeed,
		Drop:       c.chaos,
		Corrupt:    c.chaos,
		Duplicate:  c.chaos,
		Delay:      c.chaos,
		MaxDelay:   4,
		SpareHello: true,
	})
	err = instrument.RunStreaming(code, policy, initial, sched.NewRandom(c.seed), c.maxEvents, fw)
	if err == nil {
		err = fw.Close()
	}
	return fw.Stats(), err
}

// runCapture writes one instrumented session to a file, to be replayed
// later with -connect -session.
func runCapture(stdout, stderr io.Writer, c clientConfig) int {
	f, err := os.Create(c.captureFile)
	if err != nil {
		fmt.Fprintln(stderr, "gompax:", err)
		return exitError
	}
	if _, err := c.streamInto(f); err != nil {
		f.Close()
		fmt.Fprintln(stderr, "gompax:", err)
		return exitError
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(stderr, "gompax:", err)
		return exitError
	}
	fmt.Fprintf(stdout, "captured session (seed %d) to %s\n", c.seed, c.captureFile)
	return exitClean
}

// dialWithRetry dials the daemon, re-submitting after retryable
// refusals (overloaded, queue-timeout, quota-exceeded) and transport
// errors with jittered exponential backoff that honors the daemon's
// RETRY-AFTER hint. ctx cancellation (SIGINT/SIGTERM) aborts the wait.
func dialWithRetry(ctx context.Context, stderr io.Writer, c clientConfig, network, traceHex string) (*serve.Client, error) {
	bo := serve.NewBackoff(time.Now().UnixNano())
	for attempt := 0; ; attempt++ {
		cl, err := serve.Dial(network, c.addr, serve.SessionRequest{Spec: c.spec, Tenant: c.tenant, Trace: traceHex})
		if err == nil {
			return cl, nil
		}
		var hint time.Duration
		var rej *serve.RejectError
		if errors.As(err, &rej) {
			if !rej.Retryable() {
				return nil, err
			}
			hint = rej.RetryAfter
		}
		// Plain dial errors (daemon restarting after a crash) are
		// retryable too; protocol-level refusals were filtered above.
		if attempt >= c.retries {
			return nil, err
		}
		delay := bo.Delay(attempt, hint)
		fmt.Fprintf(stderr, "gompax: %v; retrying in %s (%d/%d)\n",
			err, delay.Round(time.Millisecond), attempt+1, c.retries)
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// runConnect ships one session — live from an instrumented execution,
// or previously captured with -capture — to a gompaxd daemon and maps
// the daemon's verdict onto the usual exit codes. The session id is
// printed even on post-admission failure, so a supervising harness can
// correlate this client with the daemon's store.
func runConnect(stdout, stderr io.Writer, c clientConfig) int {
	network := "tcp"
	if strings.Contains(c.addr, "/") {
		network = "unix"
	}
	// With -trace-out the client mints the trace id and hands it to the
	// daemon in the handshake, so both sides record into the same trace.
	// All span handles below are nil when tracing is off; their methods
	// are no-ops.
	var tr *tracing.Tracer
	var root *tracing.Span
	traceHex := ""
	if c.traceOut != "" {
		tr = tracing.New(tracing.Options{Process: "gompax"})
		root = tr.StartTrace("client.session")
		root.SetAttr("addr", c.addr)
		if c.spec != "" {
			root.SetAttr("spec", c.spec)
		}
		traceHex = root.TraceID().String()
	}
	sessionID := ""
	defer func() { writeClientTrace(stdout, stderr, c, tr, root, sessionID) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	dsp := root.Child("client.dial")
	cl, err := dialWithRetry(ctx, stderr, c, network, traceHex)
	dsp.End()
	if err != nil {
		var rej *serve.RejectError
		if errors.As(err, &rej) {
			fmt.Fprintf(stderr, "gompax: daemon rejected the session: %s\n", rej.Reason)
		} else {
			fmt.Fprintln(stderr, "gompax:", err)
		}
		return exitError
	}
	sessionID = cl.ID()
	root.SetAttr("session", sessionID)
	fmt.Fprintf(stdout, "session %s: admitted\n", cl.ID())

	ssp := root.Child("client.stream")
	if c.sessionFile != "" {
		ssp.SetAttr("source", "file")
		raw, err := os.ReadFile(c.sessionFile)
		if err != nil {
			ssp.End()
			cl.Close()
			fmt.Fprintln(stderr, "gompax:", err)
			return exitError
		}
		if _, err := cl.Conn().Write(raw); err != nil {
			ssp.End()
			cl.Close()
			fmt.Fprintf(stderr, "gompax: session %s: sending session: %v\n", cl.ID(), err)
			return exitError
		}
	} else {
		ssp.SetAttr("source", "live")
		if _, err := c.streamInto(cl.Conn()); err != nil {
			ssp.End()
			cl.Close()
			fmt.Fprintf(stderr, "gompax: session %s: streaming session: %v\n", cl.ID(), err)
			return exitError
		}
	}
	// Half-close so the daemon sees EOF even if the chaos injector ate
	// the Bye frame.
	if cw, ok := cl.Conn().(interface{ CloseWrite() error }); ok {
		cw.CloseWrite()
	}
	ssp.End()

	vsp := root.Child("client.verdict-wait")
	v, err := cl.Finish(2 * time.Minute)
	vsp.End()
	if err != nil {
		fmt.Fprintf(stderr, "gompax: session %s: %v\n", cl.ID(), err)
		return exitError
	}
	root.SetAttr("verdict", v.Verdict)
	fmt.Fprintf(stdout, "session %s: verdict=%s violations=%d cuts=%d degraded=%t\n",
		v.ID, v.Verdict, v.Violations, v.Cuts, v.Degraded)
	switch v.Verdict {
	case serve.VerdictViolation:
		return exitViolated
	case serve.VerdictOK:
		return exitClean
	default:
		return exitError
	}
}

// writeClientTrace finalizes the client trace after a -connect run:
// ends the root span, merges the daemon-side spans when -trace-http
// names the daemon's HTTP API, and writes the combined tree as Chrome
// trace-event JSON to -trace-out. Best effort — a failed daemon fetch
// degrades to a client-only trace rather than failing the run.
func writeClientTrace(stdout, stderr io.Writer, c clientConfig, tr *tracing.Tracer, root *tracing.Span, sessionID string) {
	if tr == nil {
		return
	}
	root.End()
	if c.traceHTTP != "" && sessionID != "" {
		if err := mergeDaemonSpans(tr, c.traceHTTP, sessionID); err != nil {
			fmt.Fprintf(stderr, "gompax: fetching daemon trace: %v (writing client-side spans only)\n", err)
		}
	}
	spans := tr.Spans(root.TraceID())
	f, err := os.Create(c.traceOut)
	if err != nil {
		fmt.Fprintln(stderr, "gompax:", err)
		return
	}
	if err := tracing.WriteChrome(f, spans); err == nil {
		err = f.Close()
	} else {
		f.Close()
	}
	if err != nil {
		fmt.Fprintf(stderr, "gompax: writing %s: %v\n", c.traceOut, err)
		return
	}
	fmt.Fprintf(stdout, "trace %s (%d spans) written to %s\n", root.TraceID(), len(spans), c.traceOut)
}

// mergeDaemonSpans fetches the daemon's span records for the session
// from its HTTP API and ingests them into the client tracer, so the
// exported file holds the whole cross-process tree under one trace id.
func mergeDaemonSpans(tr *tracing.Tracer, addr, sessionID string) error {
	url := fmt.Sprintf("http://%s/sessions/%s/trace?format=spans", addr, sessionID)
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	var spans []tracing.SpanData
	if err := json.NewDecoder(resp.Body).Decode(&spans); err != nil {
		return fmt.Errorf("decoding daemon spans: %w", err)
	}
	tr.Ingest(spans)
	return nil
}

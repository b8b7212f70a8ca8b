package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"gompax/internal/instrument"
	"gompax/internal/logic"
	"gompax/internal/monitor"
	"gompax/internal/mtl"
	"gompax/internal/observer"
	"gompax/internal/progs"
	"gompax/internal/sched"
	"gompax/internal/wire"
)

// cleanProp is a property the crossing program can never violate, so a
// session instrumented for it always verdicts ok.
const cleanProp = "x < 100"

// crossingBlob streams one crossing run instrumented for prop.
func crossingBlob(t testing.TB, prop string, seed int64) []byte {
	t.Helper()
	code := mtl.MustCompile(progs.Crossing)
	f := logic.MustParseFormula(prop)
	policy := instrument.PolicyFor(f)
	initial, err := instrument.InitialState(code.Prog, f)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := instrument.RunStreaming(code, policy, initial, sched.NewRandom(seed), 0, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

var (
	violOnce sync.Once
	violRaw  []byte
)

// violatingCrossingBlob finds (once) a crossing session whose offline
// analysis predicts a violation of the crossing property.
func violatingCrossingBlob(t testing.TB) []byte {
	t.Helper()
	violOnce.Do(func() {
		prog := monitor.MustCompile(logic.MustParseFormula(progs.CrossingProperty))
		for seed := int64(0); seed < 200; seed++ {
			raw := crossingBlob(t, progs.CrossingProperty, seed)
			res, err := observer.AnalyzeSession(
				[]*wire.Receiver{wire.NewReceiver(bytes.NewReader(raw))}, prog,
				observer.SessionOptions{})
			if err != nil {
				continue
			}
			if res.Violated() {
				violRaw = raw
				return
			}
		}
	})
	if violRaw == nil {
		t.Fatal("no violating crossing seed in 0..199")
	}
	return violRaw
}

func testSpecs() map[string]string {
	return map[string]string{
		"crossing": progs.CrossingProperty,
		"clean":    cleanProp,
	}
}

func newTestDaemon(t testing.TB, cfg Config) (*Daemon, string) {
	t.Helper()
	if cfg.Specs == nil {
		cfg.Specs = testSpecs()
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := d.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Drain(10 * time.Second) })
	return d, addr.String()
}

// runSession drives one full client session and returns the daemon's
// verdict. chaos, when non-nil, routes the blob through a FaultWriter.
func runSession(addr, spec string, blob []byte, chaos *wire.FaultPlan) (Verdict, string, error) {
	c, err := DialSession("tcp", addr, spec)
	if err != nil {
		return Verdict{}, "", err
	}
	var w io.Writer = c.Conn()
	var fw *wire.FaultWriter
	if chaos != nil {
		fw = wire.NewFaultWriter(c.Conn(), *chaos)
		w = fw
	}
	if _, err := w.Write(blob); err != nil {
		c.Close()
		return Verdict{}, c.ID(), err
	}
	if fw != nil {
		fw.Close() // release delayed frames
	}
	// Half-close so the daemon sees EOF even when chaos ate the Bye.
	if cw, ok := c.Conn().(interface{ CloseWrite() error }); ok {
		cw.CloseWrite()
	}
	v, err := c.Finish(30 * time.Second)
	return v, c.ID(), err
}

func TestDaemonEndToEnd(t *testing.T) {
	storePath := filepath.Join(t.TempDir(), "results.jsonl")
	d, addr := newTestDaemon(t, Config{Counterexamples: true, StorePath: storePath})

	viol, violID, err := runSession(addr, "crossing", violatingCrossingBlob(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	if viol.Verdict != VerdictViolation || viol.Violations == 0 {
		t.Fatalf("violating session verdict = %+v, want violation", viol)
	}
	if viol.ID != violID || violID == "" {
		t.Fatalf("verdict id %q != session id %q", viol.ID, violID)
	}

	clean, cleanID, err := runSession(addr, "clean", crossingBlob(t, cleanProp, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Verdict != VerdictOK || clean.Degraded {
		t.Fatalf("clean session verdict = %+v, want ok", clean)
	}

	// Store records: durable, with wire health and a counterexample.
	rec, ok := d.Store().Get(violID)
	if !ok {
		t.Fatalf("violating session %s not in store", violID)
	}
	if rec.Spec != "crossing" || rec.Verdict != VerdictViolation {
		t.Fatalf("stored record %+v", rec)
	}
	if rec.Wire.Frames == 0 {
		t.Fatalf("stored record has no wire stats: %+v", rec.Wire)
	}
	if len(rec.Counterexample) == 0 {
		t.Fatalf("violating record carries no counterexample")
	}
	if rec.Formula != progs.CrossingProperty {
		t.Fatalf("record formula %q", rec.Formula)
	}

	// HTTP API mounted next to the telemetry endpoints.
	mux := http.NewServeMux()
	d.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	var list []SessionSummary
	getJSON(t, srv.URL+"/sessions", &list)
	if len(list) != 2 {
		t.Fatalf("/sessions returned %d entries, want 2", len(list))
	}
	var filtered []SessionSummary
	getJSON(t, srv.URL+"/sessions?verdict=violation", &filtered)
	if len(filtered) != 1 || filtered[0].ID != violID {
		t.Fatalf("/sessions?verdict=violation = %+v", filtered)
	}

	var single Record
	getJSON(t, srv.URL+"/sessions/"+cleanID, &single)
	if single.ID != cleanID || single.Verdict != VerdictOK {
		t.Fatalf("/sessions/%s = %+v", cleanID, single)
	}
	if single.Wire.Frames == 0 {
		t.Fatalf("per-session wire health missing from API record: %+v", single.Wire)
	}
	if resp, err := http.Get(srv.URL + "/sessions/s-999999"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing session: %v %v", resp.Status, err)
	}

	var sum Summary
	getJSON(t, srv.URL+"/summary", &sum)
	if sum.Sessions != 2 || sum.Accepted != 2 || sum.Completed != 2 {
		t.Fatalf("/summary = %+v", sum)
	}
	if sum.ByVerdict[VerdictViolation] != 1 || sum.ByVerdict[VerdictOK] != 1 {
		t.Fatalf("/summary verdicts = %+v", sum.ByVerdict)
	}
	if sum.Violations != viol.Violations {
		t.Fatalf("/summary violations %d != client-observed %d", sum.Violations, viol.Violations)
	}

	// The default spec (none configured, two specs) must be required:
	// a session naming no spec is rejected as unknown.
	if _, err := DialSession("tcp", addr, ""); !isReject(err, ReasonUnknownSpec) {
		t.Fatalf("no-spec session: err = %v, want unknown-spec reject", err)
	}
}

// TestDaemonTruncatedStreamDegraded: a client whose instrumented run
// exceeds its event bound gets the bound's error and sends no Bye, so
// the daemon stores the truncated session as degraded (missing bye),
// not as the lost message or partial deadlock the cut makes it look
// like.
func TestDaemonTruncatedStreamDegraded(t *testing.T) {
	d, addr := newTestDaemon(t, Config{Specs: map[string]string{"chan": progs.ChanProperty}})
	code := mtl.MustCompile(progs.ChanPipeline(6))
	f := logic.MustParseFormula(progs.ChanProperty)
	initial, err := instrument.InitialState(code.Prog, f)
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialSession("tcp", addr, "chan")
	if err != nil {
		t.Fatal(err)
	}
	err = instrument.RunStreaming(code, instrument.PolicyFor(f), initial, &sched.RoundRobin{Quantum: 100}, 6, c.Conn())
	if err == nil || !strings.Contains(err.Error(), "exceeded 6 events") {
		c.Close()
		t.Fatalf("truncated run: err = %v, want the event-bound error", err)
	}
	if cw, ok := c.Conn().(interface{ CloseWrite() error }); ok {
		cw.CloseWrite()
	}
	v, err := c.Finish(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := d.Store().Get(v.ID)
	if !ok {
		t.Fatalf("session %s not in store", v.ID)
	}
	if rec.Verdict != VerdictDegraded || rec.Degraded == nil || !rec.Degraded.MissingBye {
		t.Fatalf("stored record: verdict %s, degraded %v; want degraded with a missing bye", rec.Verdict, rec.Degraded)
	}
}

func getJSON(t testing.TB, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decoding: %v", url, err)
	}
}

func isReject(err error, reason string) bool {
	var rej *RejectError
	return errors.As(err, &rej) && rej.Reason == reason
}

func TestDaemonUnixSocket(t *testing.T) {
	d, err := New(Config{Specs: testSpecs()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Drain(5 * time.Second) })
	sock := filepath.Join(t.TempDir(), "gompaxd.sock")
	if _, err := d.ListenUnix(sock); err != nil {
		t.Fatal(err)
	}

	c, err := DialSession("unix", sock, "clean")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Conn().Write(crossingBlob(t, cleanProp, 2)); err != nil {
		t.Fatal(err)
	}
	v, err := c.Finish(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v.Verdict != VerdictOK {
		t.Fatalf("unix session verdict = %+v", v)
	}
}

func TestDaemonHandshakeRejects(t *testing.T) {
	d, addr := newTestDaemon(t, Config{HandshakeTimeout: 300 * time.Millisecond})

	if _, err := DialSession("tcp", addr, "no-such-spec"); !isReject(err, ReasonUnknownSpec) {
		t.Fatalf("unknown spec: err = %v", err)
	}

	// A non-gompaxd client gets an explicit bad-handshake reject.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "GET / HTTP/1.1\n")
	if line, err := readLine(conn, handshakeMax); err != nil || !strings.Contains(line, ReasonBadHandshake) {
		t.Fatalf("bad greeting reply = %q, %v", line, err)
	}
	conn.Close()

	// A silent client is rejected once the handshake deadline passes.
	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn2.SetReadDeadline(time.Now().Add(5 * time.Second))
	if line, err := readLine(conn2, handshakeMax); err != nil || !strings.Contains(line, ReasonBadHandshake) {
		t.Fatalf("silent client reply = %q, %v", line, err)
	}
	conn2.Close()

	d.rejMu.Lock()
	n := d.rejects[ReasonBadHandshake]
	d.rejMu.Unlock()
	if n != 2 {
		t.Fatalf("bad-handshake rejects = %d, want 2", n)
	}
}

// occupySession admits a session and leaves the worker blocked in the
// analysis (greeting sent, no frames, long idle timeout).
func occupySession(t testing.TB, addr string) *Client {
	t.Helper()
	c, err := DialSession("tcp", addr, "clean")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDaemonAdmissionControl(t *testing.T) {
	d, addr := newTestDaemon(t, Config{
		MaxSessions:  1,
		QueueDepth:   1,
		QueueTimeout: 300 * time.Millisecond,
		IdleTimeout:  20 * time.Second,
	})

	// Occupy the single worker.
	busy := occupySession(t, addr)
	defer busy.Close()

	// Fill the one queue slot; this client sits unanswered.
	queued, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer queued.Close()
	fmt.Fprintf(queued, "%s spec=clean\n", protoGreeting)
	waitFor(t, func() bool { return d.adm.queuedLen() == 1 })

	// Queue full: the next connection is rejected as overloaded.
	if _, err := DialSession("tcp", addr, "clean"); !isReject(err, ReasonOverloaded) {
		t.Fatalf("overload: err = %v, want overloaded reject", err)
	}

	// The queued connection times out with an explicit reject.
	queued.SetReadDeadline(time.Now().Add(5 * time.Second))
	if line, err := readLine(queued, handshakeMax); err != nil || !strings.Contains(line, ReasonQueueTimeout) {
		t.Fatalf("queued client reply = %q, %v", line, err)
	}

	d.rejMu.Lock()
	overloaded, timedOut := d.rejects[ReasonOverloaded], d.rejects[ReasonQueueTimeout]
	d.rejMu.Unlock()
	if overloaded != 1 || timedOut != 1 {
		t.Fatalf("rejects: overloaded=%d queue-timeout=%d, want 1 and 1", overloaded, timedOut)
	}
}

func waitFor(t testing.TB, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition never held")
}

func TestDaemonDrain(t *testing.T) {
	storePath := filepath.Join(t.TempDir(), "results.jsonl")
	d, addr := newTestDaemon(t, Config{
		MaxSessions:  1,
		QueueDepth:   4,
		QueueTimeout: 20 * time.Second,
		IdleTimeout:  20 * time.Second,
		StorePath:    storePath,
	})

	// One in-flight session (will outlive the grace period) and one
	// queued connection (must get the draining reject).
	busy := occupySession(t, addr)
	defer busy.Close()
	queued, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer queued.Close()
	fmt.Fprintf(queued, "%s spec=clean\n", protoGreeting)
	waitFor(t, func() bool { return d.adm.queuedLen() == 1 })

	start := time.Now()
	if err := d.Drain(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("drain took %v", elapsed)
	}

	queued.SetReadDeadline(time.Now().Add(5 * time.Second))
	if line, err := readLine(queued, handshakeMax); err != nil || !strings.Contains(line, ReasonDraining) {
		t.Fatalf("queued client during drain got %q, %v", line, err)
	}
	if n := d.cancelled.Load(); n != 1 {
		t.Fatalf("cancelled sessions = %d, want 1", n)
	}

	// The aborted session still left a durable record.
	s, err := OpenStore(storePath)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != 1 {
		t.Fatalf("store has %d records after drain, want 1", s.Len())
	}
	rec := s.List()[0]
	switch rec.Verdict {
	case VerdictCancelled, VerdictError, VerdictDegraded:
	default:
		t.Fatalf("aborted session verdict = %q", rec.Verdict)
	}

	// Listeners are closed: new connections cannot reach the daemon.
	if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		c.Close()
		t.Fatal("daemon still accepting after drain")
	}

	// Drain is idempotent.
	if err := d.Drain(time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestDaemonIdleTimeout: a client that handshakes, sends a Hello and a
// few frames, then goes silent without closing gets a degraded verdict
// once the idle timeout fires, and the session leaves no goroutine
// behind.
func TestDaemonIdleTimeout(t *testing.T) {
	_, addr := newTestDaemon(t, Config{IdleTimeout: 200 * time.Millisecond})
	s, err := observer.Drain(wire.NewReceiver(bytes.NewReader(crossingBlob(t, cleanProp, 1))))
	if err != nil {
		t.Fatal(err)
	}
	var prefix bytes.Buffer
	snd := wire.NewSender(&prefix)
	snd.SendHello(s.Hello)
	for _, m := range s.Messages[:len(s.Messages)-1] {
		snd.SendMessage(m)
	}
	if err := snd.Flush(); err != nil {
		t.Fatal(err)
	}

	baseline := runtime.NumGoroutine()
	c, err := DialSession("tcp", addr, "clean")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Conn().Write(prefix.Bytes()); err != nil {
		t.Fatal(err)
	}
	v, err := c.Finish(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v.Verdict != VerdictDegraded || !v.Degraded {
		t.Fatalf("silent client verdict = %+v, want degraded", v)
	}
	waitFor(t, func() bool { return runtime.NumGoroutine() <= baseline })
}

// TestDaemonHelloThreadBound: a Hello announcing more than
// wire.MaxThreads threads is a corrupt frame, so its session ends
// before any hello with verdict=error instead of sizing per-thread
// state from the count, and the daemon serves the next session
// normally.
func TestDaemonHelloThreadBound(t *testing.T) {
	_, addr := newTestDaemon(t, Config{})
	var huge bytes.Buffer
	snd := wire.NewSender(&huge)
	snd.SendHello(wire.Hello{Threads: 1 << 40, Initial: logic.StateFromMap(map[string]int64{"x": 0})})
	snd.SendBye()
	v, _, err := runSession(addr, "clean", huge.Bytes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.Verdict != VerdictError {
		t.Fatalf("huge-hello session verdict = %+v, want error", v)
	}
	v, _, err = runSession(addr, "clean", crossingBlob(t, cleanProp, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.Verdict != VerdictOK {
		t.Fatalf("session after the huge hello: verdict = %+v, want ok", v)
	}
}

func TestDaemonBadSpecConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("no specs accepted")
	}
	if _, err := New(Config{Specs: map[string]string{"bad": "(((("}}); err == nil {
		t.Fatal("unparseable spec accepted")
	}
	if _, err := New(Config{Specs: testSpecs(), DefaultSpec: "nope"}); err == nil {
		t.Fatal("unknown default spec accepted")
	}
}

// Command gompaxd is the multi-session predictive-analysis daemon: it
// listens on TCP and/or a unix socket, accepts many concurrent wire
// sessions (each a full Hello→Messages→Bye stream from an instrumented
// program), analyzes every session against a named property spec with
// a bounded shared worker pool, and journals each verdict in a durable
// segmented results store queryable over HTTP.
//
// Usage:
//
//	gompaxd -spec crossing='(x > 0) -> [y = 0, y > z)' [flags]
//
// Flags:
//
//	-spec name=formula   register a property spec (repeatable; required)
//	-default-spec name   spec for sessions that name none
//	-listen addr         TCP session listener (default 127.0.0.1:7931,
//	                     "" to disable)
//	-unix path           unix-socket session listener
//	-http addr           HTTP address for /sessions, /summary and the
//	                     telemetry endpoints ("" to disable)
//	-store dir           segmented results store directory ("" = memory
//	                     only; a legacy single-file store there is
//	                     migrated in place)
//	-segment-bytes n     store segment rotation size (default 4MiB)
//	-fsync policy        store fsync policy: always, interval or never
//	                     (default interval)
//	-fsync-interval d    interval-policy fsync cadence (default 100ms)
//	-verify-store        open -store, verify its index against a full
//	                     segment rescan, print stats, exit 0/2
//	-tenant name=r:b:i   admission quota for a tenant: token rate per
//	                     second, burst, max inflight (repeatable;
//	                     empty parts = unlimited)
//	-max-sessions n      analysis worker pool size (default 4)
//	-queue n             per-tenant admission queue depth (default 16)
//	-queue-timeout d     max time queued before reject (default 10s)
//	-max-cuts n          per-session cut budget (0 = unlimited)
//	-max-width n         per-session level-width budget (0 = unlimited)
//	-idle-timeout d      abandon a silent session after d (default 30s)
//	-counterexamples     store a violating run per violation (default true)
//	-grace d             drain grace period on SIGTERM/SIGINT (default 30s)
//	-addr-file file      write the bound TCP address here (for scripts
//	                     using -listen 127.0.0.1:0)
//	-trace               keep a per-session span tree in an in-memory
//	                     flight recorder, served at /sessions/{id}/trace
//	                     (default true; sessions carry the client's
//	                     trace id when the handshake provides one)
//	-trace-buffer n      flight-recorder capacity in traces (default 64;
//	                     oldest evicted first)
//	-log-level l         structured log level: debug, info, warn, error
//	-log-json            emit logs as JSON
//
// On startup the daemon runs crash recovery on the store: sessions
// whose admission intent was journaled but whose verdict never landed
// (the daemon died while they were in flight) are reported as verdict
// "interrupted". The daemon exits 0 after a clean drain (SIGTERM or
// SIGINT), 2 on configuration or startup errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gompax/internal/httpx"
	"gompax/internal/serve"
	"gompax/internal/telemetry"
	"gompax/internal/telemetry/tracing"
)

const (
	exitClean = 0
	exitError = 2
)

// specsFlag collects repeated -spec name=formula flags.
type specsFlag map[string]string

func (s specsFlag) String() string {
	names := make([]string, 0, len(s))
	for name := range s {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

func (s specsFlag) Set(v string) error {
	name, formula, ok := strings.Cut(v, "=")
	if !ok || name == "" || formula == "" {
		return fmt.Errorf("want name=formula, got %q", v)
	}
	if _, dup := s[name]; dup {
		return fmt.Errorf("spec %q registered twice", name)
	}
	s[name] = formula
	return nil
}

// tenantsFlag collects repeated -tenant name=rate:burst:inflight flags.
type tenantsFlag map[string]serve.TenantLimits

func (t tenantsFlag) String() string {
	names := make([]string, 0, len(t))
	for name := range t {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

func (t tenantsFlag) Set(v string) error {
	name, quota, ok := strings.Cut(v, "=")
	if !ok || name == "" {
		return fmt.Errorf("want name=rate:burst:inflight, got %q", v)
	}
	if _, dup := t[name]; dup {
		return fmt.Errorf("tenant %q configured twice", name)
	}
	parts := strings.Split(quota, ":")
	if len(parts) != 3 {
		return fmt.Errorf("tenant %q: want rate:burst:inflight, got %q", name, quota)
	}
	var l serve.TenantLimits
	if parts[0] != "" {
		rate, err := strconv.ParseFloat(parts[0], 64)
		if err != nil || rate < 0 {
			return fmt.Errorf("tenant %q: bad rate %q", name, parts[0])
		}
		l.Rate = rate
	}
	if parts[1] != "" {
		burst, err := strconv.Atoi(parts[1])
		if err != nil || burst < 0 {
			return fmt.Errorf("tenant %q: bad burst %q", name, parts[1])
		}
		l.Burst = burst
	}
	if parts[2] != "" {
		inflight, err := strconv.Atoi(parts[2])
		if err != nil || inflight < 0 {
			return fmt.Errorf("tenant %q: bad inflight %q", name, parts[2])
		}
		l.Inflight = inflight
	}
	t[name] = l
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run is main with its environment abstracted. ready, when non-nil,
// receives the bound TCP address once the daemon is serving — the
// in-process tests use it the way scripts use -addr-file.
func run(args []string, stdout, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("gompaxd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specs := specsFlag{}
	fs.Var(specs, "spec", "property spec as name=formula (repeatable)")
	defaultSpec := fs.String("default-spec", "", "spec used by sessions that name none")
	listen := fs.String("listen", "127.0.0.1:7931", "TCP session listener address (empty to disable)")
	unixSock := fs.String("unix", "", "unix-socket session listener path")
	httpAddr := fs.String("http", "", "HTTP address for the results API and telemetry endpoints")
	storePath := fs.String("store", "", "segmented results store directory (empty = memory only)")
	segmentBytes := fs.Int64("segment-bytes", 0, "store segment rotation size in bytes (0 = default 4MiB)")
	fsyncPolicy := fs.String("fsync", "", "store fsync policy: always, interval or never (default interval)")
	fsyncInterval := fs.Duration("fsync-interval", 0, "fsync cadence for the interval policy (0 = default 100ms)")
	verifyStore := fs.Bool("verify-store", false, "verify the -store index against a full segment rescan and exit")
	tenants := tenantsFlag{}
	fs.Var(tenants, "tenant", "admission quota as name=rate:burst:inflight (repeatable)")
	maxSessions := fs.Int("max-sessions", 0, "analysis worker pool size")
	queueDepth := fs.Int("queue", 0, "per-tenant admission queue depth")
	queueTimeout := fs.Duration("queue-timeout", 0, "max time a connection may wait in the admission queue")
	maxCuts := fs.Int("max-cuts", 0, "per-session predictive analysis cut budget (0 = unlimited)")
	maxWidth := fs.Int("max-width", 0, "per-session lattice level-width budget (0 = unlimited)")
	idleTimeout := fs.Duration("idle-timeout", 0, "abandon a session whose transport goes silent for this long")
	counterexamples := fs.Bool("counterexamples", true, "store a violating run per violation")
	grace := fs.Duration("grace", 30*time.Second, "drain grace period on SIGTERM/SIGINT")
	addrFile := fs.String("addr-file", "", "write the bound TCP address to this file")
	trace := fs.Bool("trace", true, "record per-session span trees in the in-memory flight recorder")
	traceBuffer := fs.Int("trace-buffer", 0, "flight-recorder capacity in traces (0 = default 64)")
	logLevel := fs.String("log-level", "info", "structured log level: debug, info, warn, error")
	logJSON := fs.Bool("log-json", false, "emit structured logs as JSON")
	if err := fs.Parse(args); err != nil {
		return exitError
	}

	lvl, ok := telemetry.ParseLevel(*logLevel)
	if !ok {
		fmt.Fprintf(stderr, "gompaxd: unknown -log-level %q (want debug, info, warn or error)\n", *logLevel)
		return exitError
	}
	telemetry.InitLogging(lvl, *logJSON, stderr)

	if *verifyStore {
		return runVerifyStore(*storePath, stdout, stderr)
	}

	if len(specs) == 0 {
		fmt.Fprintln(stderr, "gompaxd: at least one -spec name=formula is required")
		fs.Usage()
		return exitError
	}
	if *listen == "" && *unixSock == "" {
		fmt.Fprintln(stderr, "gompaxd: nothing to listen on (-listen and -unix both empty)")
		return exitError
	}

	var tracer *tracing.Tracer
	if *trace {
		tracer = tracing.New(tracing.Options{Process: "gompaxd", MaxTraces: *traceBuffer})
	}

	d, err := serve.New(serve.Config{
		Specs:           specs,
		DefaultSpec:     *defaultSpec,
		MaxSessions:     *maxSessions,
		QueueDepth:      *queueDepth,
		QueueTimeout:    *queueTimeout,
		MaxCuts:         *maxCuts,
		MaxWidth:        *maxWidth,
		IdleTimeout:     *idleTimeout,
		Counterexamples: *counterexamples,
		StorePath:       *storePath,
		SegmentBytes:    *segmentBytes,
		Fsync:           *fsyncPolicy,
		FsyncInterval:   *fsyncInterval,
		Tenants:         tenants,
		Tracer:          tracer,
	})
	if err != nil {
		fmt.Fprintln(stderr, "gompaxd:", err)
		return exitError
	}
	if n := d.Store().RecoveredOrphans(); n > 0 {
		fmt.Fprintf(stdout, "gompaxd: recovered %d interrupted session(s) from an unclean stop\n", n)
	}

	// Take SIGTERM before the daemon announces itself (the addr file,
	// ready): whoever learns the address may signal at once, and an
	// unhandled SIGTERM would kill the process without a drain.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	defer signal.Stop(sig)

	var tcpAddr string
	if *listen != "" {
		addr, err := d.ListenTCP(*listen)
		if err != nil {
			fmt.Fprintln(stderr, "gompaxd:", err)
			return exitError
		}
		tcpAddr = addr.String()
		fmt.Fprintf(stdout, "gompaxd: sessions on tcp %s (specs: %s)\n", tcpAddr, specs)
	}
	if *unixSock != "" {
		if _, err := d.ListenUnix(*unixSock); err != nil {
			fmt.Fprintln(stderr, "gompaxd:", err)
			return exitError
		}
		defer os.Remove(*unixSock)
		fmt.Fprintf(stdout, "gompaxd: sessions on unix %s\n", *unixSock)
	}
	if *addrFile != "" && tcpAddr != "" {
		if err := os.WriteFile(*addrFile, []byte(tcpAddr+"\n"), 0o644); err != nil {
			fmt.Fprintln(stderr, "gompaxd:", err)
			return exitError
		}
	}

	var hsrv *httpx.Server
	if *httpAddr != "" {
		mux := telemetry.Handler(telemetry.Default())
		d.Mount(mux)
		hsrv, err = httpx.Serve(*httpAddr, httpx.AccessLog(mux, telemetry.Logger("http")))
		if err != nil {
			fmt.Fprintln(stderr, "gompaxd:", err)
			return exitError
		}
		telemetry.SetActive(true)
		fmt.Fprintf(stdout, "gompaxd: results API and telemetry on http://%s\n", hsrv.Addr)
	}
	if ready != nil {
		ready <- tcpAddr
	}

	s := <-sig
	signal.Stop(sig)
	fmt.Fprintf(stdout, "gompaxd: %s received, draining (grace %s)\n", s, *grace)

	code := exitClean
	if err := d.Drain(*grace); err != nil {
		fmt.Fprintln(stderr, "gompaxd: drain:", err)
		code = exitError
	}
	if hsrv != nil {
		if err := hsrv.Shutdown(5 * time.Second); err != nil {
			fmt.Fprintln(stderr, "gompaxd: http shutdown:", err)
			code = exitError
		}
		telemetry.SetActive(false)
	}
	fmt.Fprintln(stdout, "gompaxd: drained")
	return code
}

// runVerifyStore implements -verify-store: recovery-open the store
// (which itself repairs torn tails and journals orphans), check the
// rebuilt index against a full byte-for-byte segment rescan, and
// report the store's shape.
func runVerifyStore(dir string, stdout, stderr io.Writer) int {
	if dir == "" {
		fmt.Fprintln(stderr, "gompaxd: -verify-store requires -store")
		return exitError
	}
	s, err := serve.OpenStore(dir)
	if err != nil {
		fmt.Fprintln(stderr, "gompaxd: verify-store:", err)
		return exitError
	}
	defer s.Close()
	if err := s.VerifyIndex(); err != nil {
		fmt.Fprintln(stderr, "gompaxd: verify-store: index mismatch:", err)
		return exitError
	}
	st := s.StoreStats()
	fmt.Fprintf(stdout,
		"gompaxd: store %s verified: %d records (%d live entries, %d superseded), %d segment(s), %d bytes, %d orphan(s) recovered this open, %d torn line(s) repaired\n",
		dir, s.Len(), st.Live, st.Superseded, st.Segments, st.Bytes, s.RecoveredOrphans(), st.Torn)
	return exitClean
}

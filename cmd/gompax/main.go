// Command gompax is the Go MultiPathExplorer: it executes an MTL
// program under a chosen scheduler with MVC instrumentation attached,
// reconstructs the computation lattice from the emitted <e, i, V>
// messages, and predictively checks a past-time LTL safety property
// against every consistent run — reporting violations the observed
// execution never exhibited, with optional counterexample replay.
//
// Usage:
//
//	gompax -prog file.mtl -prop '(x > 0) -> [y = 0, y > z)' [flags]
//
// Flags:
//
//	-prog file     MTL program file (required)
//	-prop formula  safety property (required)
//	-seed n        random scheduler seed (default 1)
//	-runs n        number of seeds to try, reporting each (default 1)
//	-enumerate     also materialize the lattice and count runs
//	-replay        confirm the first predicted violation by replay
//	-max-events n  execution event bound (default 1e6)
//	-max-cuts n    analysis cut bound (0 = unlimited)
//	-liveness f    also check future-time LTL f against lattice lassos
//	-explain       print a subformula truth table over the counterexample
//	-quiet         only print the final verdict line per seed
//	-chaos r       stream the session through the fault injector at
//	               per-frame rate r (drop/corrupt/duplicate/delay each)
//	               and analyze it in lossy resync mode
//	-chaos-seed n  fault injector seed (default 1)
//	-workers n     lattice exploration worker pool
//	-connect addr  ship the session to a gompaxd daemon instead of
//	               analyzing locally (host:port, or a unix socket path)
//	-spec name     daemon spec to check against with -connect
//	-tenant name   admission tenant to account the session to
//	-retry n       with -connect: re-submit up to n times after a
//	               retryable reject (overloaded, queue-timeout,
//	               quota-exceeded) or a dial failure, with jittered
//	               exponential backoff honoring the daemon's
//	               retry-after hint
//	-session file  with -connect: send a session captured with -capture
//	-capture file  write the session byte stream to a file and exit
//	-trace-out f   with -connect: write the run's span tree as Chrome
//	               trace-event JSON to f (open in Perfetto). The client
//	               mints the trace id and hands it to the daemon in the
//	               handshake, so both sides share one trace.
//	-trace-http a  with -connect and -trace-out: fetch the daemon-side
//	               spans from its HTTP API at a (host:port) after the
//	               verdict and merge them into the trace file, linking
//	               client send, queue wait, per-level analysis and the
//	               verdict write under one trace id
//	-telemetry-addr a  serve /metrics, /healthz, /statusz and
//	               /debug/pprof on address a (e.g. :9090)
//	-log-level l   structured log level: debug, info, warn, error
//	-log-json      emit logs as JSON instead of text
//
// Exit codes: 0 when every run is clean, 1 when any run predicts a
// violation — of the safety property, the liveness property, or any
// message-passing analysis (send-on-closed, lost-message, partial
// deadlock) — and 2 on usage or pipeline errors and for runs that
// finished degraded (lossy session) without predicting a violation.
// A violation always beats a degradation: a degraded run that still
// predicted a violation exits 1, not 2.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"

	"gompax/internal/clock"
	"gompax/internal/driver"
	"gompax/internal/logic"
	"gompax/internal/monitor"
	"gompax/internal/observer"
	"gompax/internal/predict"
	"gompax/internal/telemetry"
	"gompax/internal/wire"
)

// Exit codes.
const (
	exitClean    = 0
	exitViolated = 1
	exitError    = 2 // usage errors, pipeline failures, degraded-only runs
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment abstracted, so tests can drive the
// CLI end to end and assert on the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gompax", flag.ContinueOnError)
	fs.SetOutput(stderr)
	progFile := fs.String("prog", "", "MTL program file")
	prop := fs.String("prop", "", "safety property formula")
	seed := fs.Int64("seed", 1, "random scheduler seed")
	runs := fs.Int("runs", 1, "number of consecutive seeds to check")
	enumerate := fs.Bool("enumerate", false, "materialize the lattice and count runs")
	replay := fs.Bool("replay", false, "confirm the first predicted violation by replaying a synthesized schedule")
	maxEvents := fs.Uint64("max-events", 0, "execution event bound (0 = default 1e6)")
	maxCuts := fs.Int("max-cuts", 0, "predictive analysis cut bound (0 = unlimited)")
	quiet := fs.Bool("quiet", false, "only print verdict lines")
	live := fs.String("liveness", "", "future-time LTL property checked against lattice lassos (uv-omega prediction)")
	explain := fs.Bool("explain", false, "print a subformula truth table over the first counterexample run")
	chaos := fs.Float64("chaos", 0, "per-frame fault rate: stream through the fault injector and analyze in lossy resync mode")
	chaosSeed := fs.Int64("chaos-seed", 1, "fault injector seed")
	workers := fs.Int("workers", 0, "lattice exploration worker pool (0 or 1 = sequential, -1 = GOMAXPROCS)")
	connect := fs.String("connect", "", "ship the session to a gompaxd daemon at this address (host:port, or a unix socket path) instead of analyzing locally")
	specName := fs.String("spec", "", "daemon spec name to check against with -connect (daemon default when empty)")
	tenant := fs.String("tenant", "", "admission tenant to account the session to with -connect")
	retries := fs.Int("retry", 0, "with -connect: re-submissions after retryable rejects or dial failures, with jittered backoff honoring the daemon's retry-after hint")
	sessionFile := fs.String("session", "", "with -connect: send a session file captured with -capture instead of executing a program")
	capture := fs.String("capture", "", "write the instrumented session byte stream to this file instead of analyzing")
	traceOut := fs.String("trace-out", "", "with -connect: write the run's span tree as Chrome trace-event JSON to this file")
	traceHTTP := fs.String("trace-http", "", "with -connect and -trace-out: merge the daemon-side spans fetched from its HTTP API at this address")
	telemetryAddr := fs.String("telemetry-addr", "", "serve /metrics, /healthz, /statusz and /debug/pprof on this address (e.g. :9090)")
	logLevel := fs.String("log-level", "warn", "structured log level: debug, info, warn, error")
	logJSON := fs.Bool("log-json", false, "emit structured logs as JSON")
	clockRepr := fs.String("clock-repr", "auto", "vector-clock substrate: flat, tree, or auto (promote to tree past the thread threshold)")
	if err := fs.Parse(args); err != nil {
		return exitError
	}

	lvl, ok := telemetry.ParseLevel(*logLevel)
	if !ok {
		fmt.Fprintf(stderr, "gompax: unknown -log-level %q (want debug, info, warn or error)\n", *logLevel)
		return exitError
	}
	telemetry.InitLogging(lvl, *logJSON, stderr)
	repr, err := clock.ParseRepr(*clockRepr)
	if err != nil {
		fmt.Fprintf(stderr, "gompax: %v\n", err)
		return exitError
	}
	clock.SetDefaultRepr(repr)
	if *maxEvents == 0 {
		*maxEvents = 1_000_000 // the documented default, on every path
	}

	// Client modes: capture a session to a file, or ship one to a
	// gompaxd daemon, instead of analyzing locally.
	cc := clientConfig{
		addr: *connect, spec: *specName,
		tenant: *tenant, retries: *retries,
		progFile: *progFile, prop: *prop,
		sessionFile: *sessionFile, captureFile: *capture,
		seed: *seed, maxEvents: *maxEvents,
		chaos: *chaos, chaosSeed: *chaosSeed,
		traceOut: *traceOut, traceHTTP: *traceHTTP,
	}
	if *capture != "" {
		if *progFile == "" || *prop == "" {
			fmt.Fprintln(stderr, "gompax: -capture needs -prog and -prop (the instrumentation is property-driven)")
			return exitError
		}
		return runCapture(stdout, stderr, cc)
	}
	if *connect != "" {
		if *sessionFile == "" && (*progFile == "" || *prop == "") {
			fmt.Fprintln(stderr, "gompax: -connect needs either -session, or -prog and -prop to stream live")
			return exitError
		}
		return runConnect(stdout, stderr, cc)
	}

	if *progFile == "" || *prop == "" {
		fmt.Fprintln(stderr, "gompax: -prog and -prop are required")
		fs.Usage()
		return exitError
	}
	if *telemetryAddr != "" {
		srv, err := telemetry.Serve(*telemetryAddr)
		if err != nil {
			fmt.Fprintln(stderr, "gompax:", err)
			return exitError
		}
		defer srv.Close()
		if !*quiet {
			fmt.Fprintf(stderr, "gompax: telemetry on http://%s\n", srv.Addr)
		}
	}
	src, err := os.ReadFile(*progFile)
	if err != nil {
		fmt.Fprintln(stderr, "gompax:", err)
		return exitError
	}

	log := telemetry.Logger("gompax")
	exit := exitClean
	degraded := false
	for i := 0; i < *runs; i++ {
		s := *seed + int64(i)
		if *chaos > 0 {
			cc.seed = s
			violated, deg, err := runChaos(stdout, cc, *maxCuts, *workers)
			if err != nil {
				fmt.Fprintln(stderr, "gompax:", err)
				return exitError
			}
			if violated {
				exit = exitViolated
			}
			if deg && !degraded {
				degraded = true
				markDegraded(log)
			}
			continue
		}
		rep, err := driver.Check(driver.Config{
			Source:           string(src),
			Property:         *prop,
			Seed:             s,
			MaxEvents:        *maxEvents,
			MaxCuts:          *maxCuts,
			Counterexamples:  true,
			Enumerate:        *enumerate,
			ConfirmReplay:    *replay,
			LivenessProperty: *live,
			Workers:          *workers,
		})
		if err != nil {
			fmt.Fprintln(stderr, "gompax:", err)
			return exitError
		}
		if *runs > 1 || !*quiet {
			fmt.Fprintf(stdout, "--- seed %d ---\n", s)
		}
		if *quiet {
			var parts []string
			if rep.Result.Violated() {
				parts = append(parts, fmt.Sprintf("PREDICTED %d violation(s)", len(rep.Result.Violations)))
			}
			if rep.Messaging.Violating() {
				parts = append(parts, fmt.Sprintf("%d message-passing finding(s)", len(rep.Messaging.Findings)))
			}
			verdict := "ok"
			if len(parts) > 0 {
				verdict = strings.Join(parts, ", ")
			}
			fmt.Fprintf(stdout, "seed %d: %s\n", s, verdict)
		} else {
			fmt.Fprint(stdout, rep.Summary())
		}
		if *explain && len(rep.Result.Violations) > 0 && rep.Result.Violations[0].Run != nil {
			prog, err := monitor.Compile(rep.Formula)
			if err != nil {
				fmt.Fprintln(stderr, "gompax:", err)
				return exitError
			}
			ex, err := monitor.Explain(prog, rep.Result.Violations[0].Run.States)
			if err != nil {
				fmt.Fprintln(stderr, "gompax:", err)
				return exitError
			}
			fmt.Fprintln(stdout, "\nwhy the counterexample violates the property (T/f per state):")
			fmt.Fprint(stdout, ex.String())
		}
		if rep.Result.Violated() || len(rep.LivenessViolations) > 0 || rep.Messaging.Violating() {
			exit = exitViolated
			log.Info("violation predicted", "seed", s, "violations", len(rep.Result.Violations),
				"messaging", rep.Messaging.Counts())
		}
		if rep.Result.Degraded.Any() && !degraded {
			degraded = true
			markDegraded(log)
		}
	}
	// A violation verdict takes precedence: a degraded session that
	// still predicted a violation exits 1, not 2.
	if degraded && exit == exitClean {
		exit = exitError
	}
	return exit
}

// markDegraded flips /healthz the moment an analysis finishes
// degraded, so a live collector sees the loss while the session is
// still running rather than only at exit.
func markDegraded(log *slog.Logger) {
	telemetry.SetHealth("analysis", "an analysis finished degraded")
	log.Warn("analysis finished degraded")
}

// runChaos streams one instrumented execution through the fault
// injector and analyzes the damaged session in lossy resync mode —
// exercising the fault-tolerance path end to end from the CLI. It
// reports whether a violation was predicted and whether the analysis
// finished degraded.
func runChaos(stdout io.Writer, c clientConfig, maxCuts, workers int) (violated, degraded bool, err error) {
	formula, err := logic.ParseFormula(c.prop)
	if err != nil {
		return false, false, err
	}
	prog, err := monitor.Compile(formula)
	if err != nil {
		return false, false, err
	}
	var damaged bytes.Buffer
	fs, err := c.streamInto(&damaged)
	if err != nil {
		return false, false, err
	}

	r := wire.NewResyncReceiver(&damaged)
	res, err := observer.Analyze(r, prog, predict.Options{Lossy: true, MaxCuts: maxCuts, Workers: workers})
	if err != nil {
		return false, false, err
	}
	fmt.Fprintf(stdout, "--- seed %d (chaos rate %g, chaos seed %d) ---\n", c.seed, c.chaos, c.chaosSeed)
	fmt.Fprintf(stdout, "injected: %d frames: %d dropped, %d corrupted, %d truncated, %d duplicated, %d delayed\n",
		fs.Frames, fs.Dropped, fs.Corrupted, fs.Truncated, fs.Duplicated, fs.Delayed)
	fmt.Fprintf(stdout, "received: %s\n", r.Stats())
	if res.Degraded.Any() {
		fmt.Fprintf(stdout, "%s\n", res.Degraded)
	} else {
		fmt.Fprintln(stdout, "degraded: no (session survived intact)")
	}
	fmt.Fprintf(stdout, "analysis: %d cuts over %d levels\n", res.Stats.Cuts, res.Stats.Levels)
	if res.Messaging != nil {
		fmt.Fprintf(stdout, "messaging: %s\n", res.Messaging.Summary())
	}
	if res.Violated() {
		fmt.Fprintf(stdout, "PREDICTED %d violation(s) despite the damage\n", len(res.Violations))
	} else {
		fmt.Fprintln(stdout, "no violation predicted from the surviving frames")
	}
	return res.Violated() || res.Messaging.Violating(), res.Degraded.Any(), nil
}

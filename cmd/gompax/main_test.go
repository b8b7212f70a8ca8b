package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

const crossingProp = "(x > 0) -> [y = 0, y > z)"

func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestExitCodeClean(t *testing.T) {
	code, out, _ := runCLI("-prog", "../../testdata/crossing.mtl", "-prop", "x < 100", "-quiet")
	if code != exitClean {
		t.Fatalf("clean run: exit %d, want %d\n%s", code, exitClean, out)
	}
	if !strings.Contains(out, "ok") {
		t.Fatalf("clean run output missing verdict: %q", out)
	}
}

func TestExitCodeViolation(t *testing.T) {
	code, out, _ := runCLI("-prog", "../../testdata/crossing.mtl", "-prop", crossingProp, "-quiet")
	if code != exitViolated {
		t.Fatalf("violating run: exit %d, want %d\n%s", code, exitViolated, out)
	}
}

// TestExitCodeMessaging pins the exit-code mapping for the
// message-passing verdicts: every channel analysis finding exits 1
// exactly like a property violation, and a clean channel program stays
// on 0.
func TestExitCodeMessaging(t *testing.T) {
	tests := []struct {
		name     string
		prog     string
		want     int
		contains string
	}{
		{"clean pipeline", "pipeline", exitClean, "ok"},
		{"send on closed", "sendclosed", exitViolated, "message-passing finding"},
		{"lost message", "lostmsg", exitViolated, "message-passing finding"},
		{"partial deadlock", "partialdeadlock", exitViolated, "message-passing finding"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			code, out, errOut := runCLI("-prog", "../../testdata/"+tt.prog+".mtl", "-prop", "done >= 0", "-quiet")
			if code != tt.want {
				t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, tt.want, out, errOut)
			}
			if !strings.Contains(out, tt.contains) {
				t.Fatalf("stdout missing %q:\n%s", tt.contains, out)
			}
		})
	}
}

// TestMessagingSummaryAndDeadlockLines checks the full (non-quiet)
// report: the deadlock line names the parked thread and the messaging
// line carries the per-kind counts and the witness.
func TestMessagingSummaryAndDeadlockLines(t *testing.T) {
	code, out, _ := runCLI("-prog", "../../testdata/partialdeadlock.mtl", "-prop", "done >= 0")
	if code != exitViolated {
		t.Fatalf("exit %d, want %d\n%s", code, exitViolated, out)
	}
	for _, want := range []string{"deadlock:", "messaging:", "partial-deadlock on", "parked on select"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestExitCodeDegraded(t *testing.T) {
	// Chaos seed 3 at rate 0.3 deterministically loses enough frames
	// that no violation survives, but the session is degraded: that
	// must be distinguishable from a clean pass.
	code, out, _ := runCLI("-prog", "../../testdata/crossing.mtl", "-prop", crossingProp,
		"-chaos", "0.3", "-chaos-seed", "3")
	if strings.Contains(out, "PREDICTED") {
		t.Fatalf("fault plan changed: a violation now survives chaos seed 3; -chaos output must stay byte-identical per seed\n%s", out)
	}
	if !strings.Contains(out, "degraded:") || strings.Contains(out, "degraded: no") {
		t.Fatalf("expected a degraded session:\n%s", out)
	}
	if code != exitError {
		t.Fatalf("degraded non-violating run: exit %d, want %d\n%s", code, exitError, out)
	}
}

func TestExitCodeViolationTakesPrecedenceOverDegraded(t *testing.T) {
	// Chaos seed 2 at rate 0.1 duplicates one frame: the session is
	// degraded, and the violation still survives.
	code, out, _ := runCLI("-prog", "../../testdata/crossing.mtl", "-prop", crossingProp,
		"-chaos", "0.1", "-chaos-seed", "2")
	if !strings.Contains(out, "PREDICTED") || strings.Contains(out, "degraded: no") {
		t.Fatalf("fault plan changed: chaos seed 2 no longer yields violated+degraded; -chaos output must stay byte-identical per seed\n%s", out)
	}
	if code != exitViolated {
		t.Fatalf("violated+degraded run: exit %d, want %d\n%s", code, exitViolated, out)
	}
}

func TestExitCodeUsageErrors(t *testing.T) {
	if code, _, _ := runCLI(); code != exitError {
		t.Errorf("missing flags: exit %d, want %d", code, exitError)
	}
	if code, _, stderr := runCLI("-prog", "no-such-file.mtl", "-prop", "x = 0"); code != exitError || !strings.Contains(stderr, "no-such-file") {
		t.Errorf("missing program file: exit %d stderr %q", code, stderr)
	}
	if code, _, stderr := runCLI("-prog", "../../testdata/crossing.mtl", "-prop", "x = 0", "-log-level", "loud"); code != exitError || !strings.Contains(stderr, "log-level") {
		t.Errorf("bad log level: exit %d stderr %q", code, stderr)
	}
}

// TestTelemetryEndpointsLive drives the CLI with -telemetry-addr and
// scrapes all four endpoint families while the analysis loop is still
// running.
func TestTelemetryEndpointsLive(t *testing.T) {
	pr, pw := io.Pipe()
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "telemetry on http://"); i >= 0 {
				select {
				case addrCh <- strings.TrimSpace(line[i+len("telemetry on http://"):]):
				default:
				}
			}
		}
	}()

	done := make(chan int, 1)
	var out bytes.Buffer
	go func() {
		code := run([]string{
			"-prog", "../../testdata/crossing.mtl", "-prop", crossingProp,
			"-runs", "5000", "-telemetry-addr", "127.0.0.1:0",
		}, &out, pw)
		pw.Close()
		done <- code
	}()

	var addr string
	select {
	case addr = <-addrCh:
	case <-time.After(10 * time.Second):
		t.Fatal("telemetry address never announced")
	}

	get := func(path string) (int, string) {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if st, body := get("/metrics"); st != http.StatusOK || !strings.Contains(body, "gompax_lattice_cuts_total") {
		t.Errorf("/metrics: status %d, body %.200q", st, body)
	}
	if st, body := get("/healthz"); st != http.StatusOK && st != http.StatusServiceUnavailable {
		t.Errorf("/healthz: status %d, body %.200q", st, body)
	}
	if st, body := get("/statusz"); st != http.StatusOK || !strings.Contains(body, "analysis") {
		t.Errorf("/statusz: status %d, body %.200q", st, body)
	}
	if st, _ := get("/debug/pprof/cmdline"); st != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline: status %d", st)
	}

	select {
	case code := <-done:
		if code != exitViolated {
			t.Fatalf("CLI exit %d, want %d\n%s", code, exitViolated, out.String())
		}
	case <-time.After(60 * time.Second):
		t.Fatal("CLI run never finished")
	}
}

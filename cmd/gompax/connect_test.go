package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gompax/internal/observer"
	"gompax/internal/serve"
	"gompax/internal/testsupport/wirev2"
	"gompax/internal/wire"
)

func startDaemon(t *testing.T) string {
	t.Helper()
	d, err := serve.New(serve.Config{
		Specs: map[string]string{
			"crossing": crossingProp,
			"clean":    "x < 100",
			"chan":     "done >= 0",
		},
		Counterexamples: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := d.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Drain(10 * time.Second) })
	return addr.String()
}

// TestConnectLiveSession streams live executions to a daemon: a clean
// spec always verdicts ok, and some seed of the crossing program gets
// a predicted violation mapped to exit 1.
func TestConnectLiveSession(t *testing.T) {
	addr := startDaemon(t)

	code, out, stderr := runCLI("-connect", addr, "-spec", "clean",
		"-prog", "../../testdata/crossing.mtl", "-prop", "x < 100")
	if code != exitClean || !strings.Contains(out, "verdict=ok") {
		t.Fatalf("clean session: exit %d out %q stderr %q", code, out, stderr)
	}

	foundViolation := false
	for seed := 1; seed <= 50 && !foundViolation; seed++ {
		code, out, stderr := runCLI("-connect", addr, "-spec", "crossing",
			"-prog", "../../testdata/crossing.mtl", "-prop", crossingProp,
			"-seed", fmt.Sprint(seed))
		switch code {
		case exitViolated:
			if !strings.Contains(out, "verdict=violation") {
				t.Fatalf("violating session output %q", out)
			}
			foundViolation = true
		case exitClean:
			// This seed's lattice holds no violating run; keep looking.
		default:
			t.Fatalf("seed %d: exit %d stderr %q", seed, code, stderr)
		}
	}
	if !foundViolation {
		t.Fatal("no seed in 1..50 produced a predicted violation via the daemon")
	}
}

// TestCaptureAndReplay captures a session to a file, then ships the
// captured bytes to the daemon with -session.
func TestCaptureAndReplay(t *testing.T) {
	addr := startDaemon(t)
	capture := filepath.Join(t.TempDir(), "session.bin")

	code, out, stderr := runCLI("-capture", capture,
		"-prog", "../../testdata/crossing.mtl", "-prop", crossingProp, "-seed", "1")
	if code != exitClean || !strings.Contains(out, "captured session") {
		t.Fatalf("capture: exit %d out %q stderr %q", code, out, stderr)
	}
	if st, err := os.Stat(capture); err != nil || st.Size() == 0 {
		t.Fatalf("capture file: %v %v", st, err)
	}

	liveCode, _, _ := runCLI("-connect", addr, "-spec", "crossing",
		"-prog", "../../testdata/crossing.mtl", "-prop", crossingProp, "-seed", "1")
	replayCode, out, stderr := runCLI("-connect", addr, "-spec", "crossing", "-session", capture)
	if replayCode != liveCode {
		t.Fatalf("replayed capture exits %d but live seed exits %d (out %q stderr %q)",
			replayCode, liveCode, out, stderr)
	}
}

// TestV2CaptureReplay pins wire backward compatibility end to end: a
// session transcoded to frame v2 (full clocks, no delta mode byte)
// must replay through `gompax -connect -session` to the same verdict
// as the v3 capture it came from.
func TestV2CaptureReplay(t *testing.T) {
	addr := startDaemon(t)
	capture := filepath.Join(t.TempDir(), "session.bin")

	code, _, stderr := runCLI("-capture", capture,
		"-prog", "../../testdata/crossing.mtl", "-prop", crossingProp, "-seed", "1")
	if code != exitClean {
		t.Fatalf("capture: exit %d stderr %q", code, stderr)
	}

	// Transcode the v3 capture into a v2 one: decode the session, then
	// re-frame it with the v2 sender an old client would have used.
	data, err := os.ReadFile(capture)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := observer.Drain(wire.NewReceiver(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	var v2 bytes.Buffer
	s := wirev2.NewSender(&v2)
	if err := s.SendHello(sess.Hello.Threads, sess.Hello.Initial); err != nil {
		t.Fatal(err)
	}
	for _, m := range sess.Messages {
		if err := s.SendMessage(m); err != nil {
			t.Fatal(err)
		}
	}
	for i, done := range sess.Done {
		if done {
			if err := s.SendThreadDone(i); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.SendBye(); err != nil {
		t.Fatal(err)
	}
	v2capture := filepath.Join(t.TempDir(), "session-v2.bin")
	if err := os.WriteFile(v2capture, v2.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	v3Code, v3Out, _ := runCLI("-connect", addr, "-spec", "crossing", "-session", capture)
	v2Code, v2Out, stderr := runCLI("-connect", addr, "-spec", "crossing", "-session", v2capture)
	if v2Code != v3Code {
		t.Fatalf("v2 capture exits %d but v3 capture exits %d (out %q stderr %q)",
			v2Code, v3Code, v2Out, stderr)
	}
	verdict := func(out string) string {
		for _, f := range strings.Fields(out) {
			if strings.HasPrefix(f, "verdict=") {
				return f
			}
		}
		return ""
	}
	if v := verdict(v2Out); v == "" || v != verdict(v3Out) {
		t.Fatalf("v2 capture verdict %q differs from v3 %q", verdict(v2Out), verdict(v3Out))
	}
}

func TestConnectErrors(t *testing.T) {
	addr := startDaemon(t)

	// Unknown spec: explicit daemon reject surfaces on stderr.
	code, _, stderr := runCLI("-connect", addr, "-spec", "no-such-spec",
		"-prog", "../../testdata/crossing.mtl", "-prop", crossingProp)
	if code != exitError || !strings.Contains(stderr, serve.ReasonUnknownSpec) {
		t.Fatalf("unknown spec: exit %d stderr %q", code, stderr)
	}

	// Nothing to send.
	code, _, stderr = runCLI("-connect", addr)
	if code != exitError || !strings.Contains(stderr, "-session") {
		t.Fatalf("missing inputs: exit %d stderr %q", code, stderr)
	}

	// Capture requires the property (instrumentation is property-driven).
	code, _, stderr = runCLI("-capture", filepath.Join(t.TempDir(), "s.bin"),
		"-prog", "../../testdata/crossing.mtl")
	if code != exitError || !strings.Contains(stderr, "-capture") {
		t.Fatalf("capture without prop: exit %d stderr %q", code, stderr)
	}

	// Dead daemon address.
	code, _, _ = runCLI("-connect", "127.0.0.1:1", "-session", "nope.bin")
	if code != exitError {
		t.Fatalf("dead daemon: exit %d", code)
	}
}

// TestEventBoundOnEveryPath: -max-events fails a run that exceeds it
// the same way on the local, -capture and -connect paths (exit 2), and
// its default applies to all three. A streamed run cut short by the
// bound sends no Bye, so the daemon never judges the truncated
// pipeline as a lost message or a partial deadlock.
func TestEventBoundOnEveryPath(t *testing.T) {
	addr := startDaemon(t)
	capture := filepath.Join(t.TempDir(), "session.bin")
	pipeline := []string{"-prog", "../../testdata/pipeline.mtl", "-prop", "done >= 0", "-seed", "1", "-max-events", "3"}
	for _, mode := range [][]string{nil, {"-capture", capture}, {"-connect", addr, "-spec", "chan"}} {
		code, out, stderr := runCLI(append(mode, pipeline...)...)
		if code != exitError || !strings.Contains(stderr, "exceeded 3 events") {
			t.Fatalf("%v: exit %d, out %q, stderr %q; want exit %d with the event-bound error", mode, code, out, stderr, exitError)
		}
	}

	spin := filepath.Join(t.TempDir(), "spin.mtl")
	if err := os.WriteFile(spin, []byte("shared x = 0, y = 0;\nthread spin { while (y == 0) { x = x + 1; } }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runCLI("-capture", capture, "-prog", spin, "-prop", "y = 0")
	if code != exitError || !strings.Contains(stderr, "exceeded 1000000 events") {
		t.Fatalf("-capture of a spinning program: exit %d stderr %q; want the default 1e6 bound", code, stderr)
	}
}

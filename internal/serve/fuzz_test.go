package serve

import (
	"net"
	"strings"
	"testing"
	"time"
)

// FuzzHandshake writes arbitrary bytes to a live daemon as a client's
// greeting, then half-closes the connection. Within the daemon's
// handshake timeout the first line back must be "OK id=…" or
// "REJECT reason=<reason>" with one of the Reason* constants, and the
// daemon must not panic. Seed greetings also pin their expected reply.
func FuzzHandshake(f *testing.F) {
	seeds := []struct{ greeting, want string }{
		{"GOMPAXD/1 spec=clean tenant=acme trace=0123456789abcdef\n", "OK id="},
		{"GOMPAXD/1 spec=no-such-spec\n", "REJECT reason=" + ReasonUnknownSpec},
		{"GOMPAXD/1 spec=clean trace=not-a-trace-id\n", "OK id="},
		{"GOMPAXD/1 tenant=" + strings.Repeat("x", handshakeMax) + "\n", "REJECT reason=" + ReasonBadHandshake},
		{"GOMPAXD/1 spec=clean", "REJECT reason=" + ReasonBadHandshake},
		{"GOMPAXD/1 spec=clean\r\n", "OK id="},
		{"GOMPAXD/1 spec=clean tenant=a\x00b\x00\n", "OK id="},
		{"", "REJECT reason=" + ReasonBadHandshake},
	}
	want := map[string]string{}
	for _, s := range seeds {
		f.Add([]byte(s.greeting))
		want[s.greeting] = s.want
	}
	reasons := map[string]bool{}
	for _, r := range []string{ReasonOverloaded, ReasonQueueTimeout, ReasonDraining, ReasonBadHandshake, ReasonUnknownSpec, ReasonQuotaExceeded} {
		reasons[r] = true
	}
	const timeout = 2 * time.Second
	// The budget bounds the analysis of any wire frames a greeting
	// smuggles in after its newline, so admitted sessions free their
	// worker quickly.
	_, addr := newTestDaemon(f, Config{
		Specs:            map[string]string{"clean": cleanProp},
		HandshakeTimeout: timeout,
		IdleTimeout:      timeout,
		MaxCuts:          512,
		MaxWidth:         32,
	})
	f.Fuzz(func(t *testing.T, greeting []byte) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
			t.Fatal(err)
		}
		// Write and half-close errors are expected: the daemon may
		// reject a greeting and close before reading all of it.
		conn.Write(greeting)
		conn.(*net.TCPConn).CloseWrite()
		line, err := readLine(conn, handshakeMax)
		if err != nil {
			t.Fatalf("greeting %q: no reply line: %v", greeting, err)
		}
		fields := strings.Fields(line)
		ok := len(fields) == 2 && fields[0] == "OK" && len(fields[1]) > len("id=") && strings.HasPrefix(fields[1], "id=")
		if len(fields) >= 2 && fields[0] == "REJECT" {
			reason, found := strings.CutPrefix(fields[1], "reason=")
			ok = found && reasons[reason]
		}
		if !ok {
			t.Fatalf("greeting %q: first line %q", greeting, line)
		}
		if w, seeded := want[string(greeting)]; seeded && !strings.HasPrefix(line, w) {
			t.Fatalf("greeting %q: first line %q, want %s…", greeting, line, w)
		}
	})
}

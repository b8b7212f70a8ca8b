package serve

import (
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"
)

// The daemon handshake: one text line each way before (OK) and after
// (VERDICT) the binary wire session, so admission control and the
// final verdict travel on the same connection as the frame stream
// without touching the wire frame format.
//
//	client → GOMPAXD/1 spec=<name> tenant=<tenant> trace=<16-hex>\n
//	daemon → OK id=<session-id>\n                           (admitted)
//	daemon → REJECT reason=<reason> retry-after=<dur>\n     (refused)
//	client → <wire frames: Hello, Messages, ThreadDone, Bye>
//	daemon → VERDICT id=<id> verdict=<v> violations=<n> cuts=<n> degraded=<bool>\n
//
// The OK line doubles as the admission signal: a client that waits for
// it before streaming gets natural backpressure from the daemon's
// admission queue. The REJECT line is the explicit reject frame the
// overloaded daemon sends instead of silently dropping the connection.
//
// All handshake keys are optional: spec defaults to the daemon's
// default spec, tenant to the "default" admission tenant, and trace —
// the client-minted end-to-end trace id the daemon continues through
// its own pipeline spans — defaults to absent (the pre-tracing
// behavior, so old clients and old daemons interoperate unchanged; an
// unparsable trace value is ignored, never rejected). A REJECT may
// carry a retry-after hint (a Go duration) telling the client when a
// retry could succeed; rejects without the hint (draining,
// bad-handshake, unknown-spec) are not worth retrying.
const (
	protoGreeting = "GOMPAXD/1"
	// handshakeMax bounds the greeting line; anything longer is not a
	// gompaxd client.
	handshakeMax = 256
)

// Reject reasons the daemon reports.
const (
	ReasonOverloaded    = "overloaded"     // admission queue full
	ReasonQueueTimeout  = "queue-timeout"  // queued past Config.QueueTimeout
	ReasonDraining      = "draining"       // daemon is shutting down
	ReasonBadHandshake  = "bad-handshake"  // greeting missing or malformed
	ReasonUnknownSpec   = "unknown-spec"   // spec name not registered
	ReasonQuotaExceeded = "quota-exceeded" // tenant token bucket empty
)

// RejectError is returned by the client when the daemon refuses the
// session. RetryAfter, when positive, is the daemon's hint for when a
// retry could succeed.
type RejectError struct {
	Reason     string
	RetryAfter time.Duration
}

func (e *RejectError) Error() string { return "serve: session rejected: " + e.Reason }

// Retryable reports whether retrying the session later could help:
// transient pressure (overload, queue timeout, quota) is retryable,
// protocol and configuration errors and a draining daemon are not.
func (e *RejectError) Retryable() bool {
	switch e.Reason {
	case ReasonOverloaded, ReasonQueueTimeout, ReasonQuotaExceeded:
		return true
	}
	return false
}

// Verdict is the parsed daemon trailer line.
type Verdict struct {
	ID         string
	Verdict    string
	Violations int
	Cuts       int
	Degraded   bool
}

// readLine reads bytes until '\n' (at most max), one byte at a time so
// nothing past the line is consumed — the binary wire stream follows
// immediately after the handshake on the same connection.
func readLine(r io.Reader, max int) (string, error) {
	var b [1]byte
	line := make([]byte, 0, 64)
	for len(line) < max {
		if _, err := io.ReadFull(r, b[:]); err != nil {
			return "", err
		}
		if b[0] == '\n' {
			return strings.TrimRight(string(line), "\r"), nil
		}
		line = append(line, b[0])
	}
	return "", fmt.Errorf("serve: line exceeds %d bytes", max)
}

// parseKV parses "k=v" fields after a leading keyword.
func parseKV(fields []string) map[string]string {
	kv := make(map[string]string, len(fields))
	for _, f := range fields {
		if k, v, ok := strings.Cut(f, "="); ok {
			kv[k] = v
		}
	}
	return kv
}

// Client is the sending side of one daemon session: it performs the
// handshake, exposes the connection for the wire sender, and reads the
// daemon's verdict trailer. Used by `gompax -connect` and the tests.
type Client struct {
	conn net.Conn
	id   string
}

// SessionRequest names what the client is asking the daemon for.
type SessionRequest struct {
	// Spec is the property to check against ("" = daemon default).
	Spec string
	// Tenant is the admission tenant to account the session to
	// ("" = the "default" tenant).
	Tenant string
	// Trace is a client-minted end-to-end trace id (16 hex digits; see
	// internal/telemetry/tracing). When set it rides the handshake's
	// trace= key and the daemon continues the same trace through
	// admission, analysis and the verdict journal. "" omits the key —
	// the pre-tracing handshake.
	Trace string
}

// DialSession connects to a daemon, requests a session against the
// named spec (empty = the daemon's default spec), and waits for
// admission. A refusal comes back as a *RejectError.
func DialSession(network, addr, spec string) (*Client, error) {
	return Dial(network, addr, SessionRequest{Spec: spec})
}

// Dial is DialSession with the full request (spec and tenant).
func Dial(network, addr string, req SessionRequest) (*Client, error) {
	conn, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn}
	line := protoGreeting
	if req.Spec != "" {
		line += " spec=" + req.Spec
	}
	if req.Tenant != "" {
		line += " tenant=" + req.Tenant
	}
	if req.Trace != "" {
		line += " trace=" + req.Trace
	}
	if _, err := io.WriteString(conn, line+"\n"); err != nil {
		conn.Close()
		return nil, err
	}
	resp, err := readLine(conn, handshakeMax)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("serve: reading admission response: %w", err)
	}
	fields := strings.Fields(resp)
	if len(fields) == 0 {
		conn.Close()
		return nil, fmt.Errorf("serve: empty admission response")
	}
	kv := parseKV(fields[1:])
	switch fields[0] {
	case "OK":
		c.id = kv["id"]
		return c, nil
	case "REJECT":
		conn.Close()
		re := &RejectError{Reason: kv["reason"]}
		if d, err := time.ParseDuration(kv["retry-after"]); err == nil && d > 0 {
			re.RetryAfter = d
		}
		return nil, re
	default:
		conn.Close()
		return nil, fmt.Errorf("serve: unexpected admission response %q", resp)
	}
}

// ID returns the daemon-assigned session id.
func (c *Client) ID() string { return c.id }

// Conn returns the connection; the caller streams the wire session
// (Hello through Bye) into it.
func (c *Client) Conn() net.Conn { return c.conn }

// Finish reads the daemon's verdict trailer (waiting up to timeout;
// 0 = no deadline) and closes the connection.
func (c *Client) Finish(timeout time.Duration) (Verdict, error) {
	defer c.conn.Close()
	if timeout > 0 {
		c.conn.SetReadDeadline(time.Now().Add(timeout))
	}
	line, err := readLine(c.conn, handshakeMax)
	if err != nil {
		return Verdict{}, fmt.Errorf("serve: reading verdict: %w", err)
	}
	fields := strings.Fields(line)
	if len(fields) == 0 || fields[0] != "VERDICT" {
		return Verdict{}, fmt.Errorf("serve: unexpected verdict line %q", line)
	}
	kv := parseKV(fields[1:])
	v := Verdict{ID: kv["id"], Verdict: kv["verdict"]}
	v.Violations, _ = strconv.Atoi(kv["violations"])
	v.Cuts, _ = strconv.Atoi(kv["cuts"])
	v.Degraded = kv["degraded"] == "true"
	return v, nil
}

// Close abandons the session without waiting for a verdict.
func (c *Client) Close() error { return c.conn.Close() }

package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"gompax/internal/clock"
	"gompax/internal/event"
)

// WriteMessages serializes observer messages in a line-oriented text
// format, one message per line:
//
//	<kind> <thread> <index> <seq> <relevant> <var> <value> <clock...>
//
// The format is meant for golden-trace files checked into testdata and
// for ad-hoc inspection; the wire package's binary codec is the
// production path.
func WriteMessages(w io.Writer, msgs []event.Message) error {
	bw := bufio.NewWriter(w)
	for _, m := range msgs {
		rel := 0
		if m.Event.Relevant {
			rel = 1
		}
		fmt.Fprintf(bw, "%s %d %d %d %d %s %d", m.Event.Kind, m.Event.Thread,
			m.Event.Index, m.Event.Seq, rel, escapeVar(m.Event.Var), m.Event.Value)
		for i := 0; i < m.Clock.Len(); i++ {
			fmt.Fprintf(bw, " %d", m.Clock.Get(i))
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// ReadMessages parses the format written by WriteMessages. Blank lines
// and lines starting with '#' are skipped.
func ReadMessages(r io.Reader) ([]event.Message, error) {
	var out []event.Message
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 7 {
			return nil, fmt.Errorf("trace: line %d: need at least 7 fields, got %d", lineNo, len(fields))
		}
		kind, err := parseKind(fields[0])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %v", lineNo, err)
		}
		nums := make([]int64, 0, len(fields)-2)
		for _, f := range append(fields[1:5:5], fields[6:]...) {
			v, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: bad number %q", lineNo, f)
			}
			nums = append(nums, v)
		}
		m := event.Message{
			Event: event.Event{
				Kind:     kind,
				Thread:   int(nums[0]),
				Index:    uint64(nums[1]),
				Seq:      uint64(nums[2]),
				Relevant: nums[3] == 1,
				Var:      unescapeVar(fields[5]),
				Value:    nums[4],
			},
		}
		comps := make([]uint64, len(nums)-5)
		for i, v := range nums[5:] {
			comps[i] = uint64(v)
		}
		m.Clock = clock.New(comps)
		out = append(out, m)
	}
	return out, sc.Err()
}

func escapeVar(s string) string {
	if s == "" {
		return "_"
	}
	return s
}

func unescapeVar(s string) string {
	if s == "_" {
		return ""
	}
	return s
}

var kindNames = map[string]event.Kind{
	"internal":   event.Internal,
	"read":       event.Read,
	"write":      event.Write,
	"acquire":    event.Acquire,
	"release":    event.Release,
	"signal":     event.Signal,
	"waitresume": event.WaitResume,
	"spawn":      event.Spawn,
}

func parseKind(s string) (event.Kind, error) {
	k, ok := kindNames[s]
	if !ok {
		return 0, fmt.Errorf("unknown event kind %q", s)
	}
	return k, nil
}

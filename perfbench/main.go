// Command perfbench is gompax's end-to-end and per-layer benchmark. It
// runs gompaxd in-process on loopback and drives it with one closed-loop
// client, a gompax -connect style caller that streams an instrumented
// MTL run into its session and waits for the VERDICT. End-to-end
// timings are reported at reference host speed (host.go).
//
//	perfbench -workload stream-mix|wide-lattice|deep-fanin -seed N -seconds S -trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// -trace 0, the per-layer ledger with -trace 1. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one named measurement with its unit.
type metric struct {
	name  string
	value float64
	unit  string
}

// setups is how many times a run sets up; setup_s is their median.
const setups = 15

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: stream-mix, wide-lattice or deep-fanin")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "length of the timed window")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer ledger")
	tiny := flag.Bool("tiny", false, "self-test size: short session lists of small programs")
	commit := flag.String("commit", "unknown", "commit or source digest recorded in the provenance line")
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	root, err := os.MkdirTemp(".bench_build", "perfbench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(root)

	list := w.sessions(*seed, *tiny)
	dur := time.Duration(*seconds * float64(time.Second))
	warm, heap := time.Second, w.heapSessions
	if *tiny {
		warm, heap = 100*time.Millisecond, len(list)
	}
	res, err := bench(w, list, root, dur, warm, heap, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	prov := map[string]any{
		"workload": w.name, "seed": *seed, "seconds": *seconds, "trace": *trace, "tiny": *tiny,
		"commit": *commit, "cpu": cpuModel(), "nproc": runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"sessions_listed": len(list), "sessions_timed": res.timed,
		"session_ms_p50": res.sessionMs, "failed_frac": float64(res.failed) / float64(res.attempted),
		"host_slowdown": res.slow,
	}
	pj, _ := json.Marshal(prov)
	fmt.Println("provenance " + string(pj))
	for _, m := range res.metrics {
		fmt.Printf("%-36s %14.4f %s\n", m.name, m.value, m.unit)
	}
	out := map[string]any{}
	for _, m := range res.metrics {
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	last, _ := json.Marshal(map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   out,
	})
	fmt.Println(string(last))
	return 0
}

// result is what one run reports.
type result struct {
	metrics   []metric
	attempted int
	failed    int
	timed     int     // sessions in the timed window(s)
	sessionMs float64 // median Dial-to-VERDICT wall-clock time
	slow      float64 // host slowdown over the untraced window (host.go)
}

// bench sets up, runs the timed window and the heap pass of heap
// sessions (traced: the ledger instead), and tears down.
func bench(w workload, list []session, root string, dur, warm time.Duration, heap int, traced bool) (result, error) {
	var spans [][2]time.Time
	var prep []prepared
	var d *daemon
	probe := startProbe()
	for k := 0; k < setups; k++ {
		p, dk, t0, t1, err := setUp(w, list, root, k)
		if err != nil {
			probe.stop()
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		spans = append(spans, [2]time.Time{t0, t1})
		if d != nil {
			if err := d.stop(); err != nil {
				probe.stop()
				return result{}, err
			}
		}
		prep, d = p, dk
	}
	probe.stop()
	times := make([]float64, len(spans))
	for k, sp := range spans {
		times[k] = sp[1].Sub(sp[0]).Seconds() / probe.slowdown(sp[0], sp[1])
	}
	setup := percentile(times, 0.5)
	if err := countSteps(prep); err != nil {
		d.stop()
		return result{}, err
	}
	if traced {
		return ledger(w, prep, d, root, dur, warm)
	}
	res := windowResult(measure(d, prep, dur, warm, nil), setup)
	if err := d.stop(); err != nil {
		return result{}, err
	}
	peak, hs, err := heapPass(w, prep, root, heap)
	if err != nil {
		return result{}, fmt.Errorf("heap pass: %w", err)
	}
	failed, _ := tally(hs)
	res.metrics = append(res.metrics, metric{"peak_live_heap_mb", float64(peak) / (1 << 20), "MB"})
	res.attempted += len(hs)
	res.failed += failed
	return res, nil
}

// windowResult reports a timed window. The window's samples are not
// kept, so they are garbage before the heap pass.
func windowResult(win window, setup float64) result {
	printKinds(win.samples)
	return result{
		metrics:   endToEnd(win, setup),
		attempted: len(win.samples),
		failed:    win.failed,
		timed:     len(win.samples),
		sessionMs: percentile(pick(win.samples, sample.totalMs), 0.5),
		slow:      win.slow,
	}
}

// printKinds writes a per-template breakdown of the window to stderr:
// session count and median program, lag and Dial-to-VERDICT times.
func printKinds(samples []sample) {
	byKind := map[string][]sample{}
	var kinds []string
	for _, s := range samples {
		if byKind[s.p.kind] == nil {
			kinds = append(kinds, s.p.kind)
		}
		byKind[s.p.kind] = append(byKind[s.p.kind], s)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		ss := byKind[k]
		fmt.Fprintf(os.Stderr, "%-18s n=%-6d program_ms_p50=%-9.3f lag_ms_p50=%-9.3f session_ms_p50=%.3f\n", k, len(ss),
			percentile(pick(ss, sample.programMs), 0.5), percentile(pick(ss, sample.lagMs), 0.5),
			percentile(pick(ss, sample.totalMs), 0.5))
	}
}

// cpuModel reads the CPU model name for the provenance line.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

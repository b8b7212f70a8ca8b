package serve

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gompax/internal/instrument"
	"gompax/internal/logic"
	"gompax/internal/mtl"
	"gompax/internal/progs"
	"gompax/internal/sched"
	"gompax/internal/wire"
)

// This file runs the benchmark's verdict oracle at benchmark scale.
// The session generators, specs, chaos plan and judge are copies of
// perfbench/workloads.go (perfbench is a module of its own, so the test
// cannot import it): the two gated workloads' session lists, at full
// size, go through one in-process daemon, and every session must pass
// the benchmark's judge. Keep the copies in step with perfbench.

// benchSession is one generated daemon session. cuts and violations,
// when cuts > 0, are the closed-form VERDICT counts of a pulse lattice.
type benchSession struct {
	kind       string
	src        string
	spec       string
	sched      int64
	chaos      int64 // FaultWriter seed; 0 sends the stream unharmed
	expect     string
	cuts       int
	violations int
}

// benchSpecs are the six specs of the two gated workloads.
var benchSpecs = map[string]string{
	"overlap":  progs.PulseOverlapProperty,
	"racy":     progs.PulseRacyProperty,
	"mutex":    progs.MutualExclusion,
	"chan":     progs.ChanProperty,
	"overlap3": `!(v0 = 1 /\ v1 = 1 /\ v2 = 1)`,
	"interval": `!(v0 = 1 /\ v1 = 1) \/ [v0 = 1, v1 = 1)`,
}

// pulseLattice is the closed form of a PulseViolating lattice watched
// on k of its threads, each with p pulses (2p relevant writes): every
// combination of per-thread counts is a consistent cut, and the cuts
// with every watched pulse raised violate.
func pulseLattice(k, p int) (cuts, violations int) {
	cuts, violations = 1, 1
	for i := 0; i < k; i++ {
		cuts *= 2*p + 1
		violations *= p
	}
	return cuts, violations
}

func benchStratified(rng *rand.Rand, n, lo, hi int) []int {
	out := make([]int, n)
	span := float64(hi - lo + 1)
	for i := range out {
		out[i] = lo + int((float64(i)+rng.Float64())/float64(n)*span)
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// benchTemplate adds count sessions of one kind, drawing from rng
// exactly as perfbench's template does. closed, when non-nil, gives the
// closed-form counts for the sizes.
func benchTemplate(rng *rand.Rand, list []benchSession, count int, kind, spec, expect string, chaos bool,
	a, b [2]int, build func(a, b int) string, closed func(a, b int) (int, int)) []benchSession {
	as := benchStratified(rng, count, a[0], a[1])
	bs := benchStratified(rng, count, b[0], b[1])
	for j := 0; j < count; j++ {
		s := benchSession{kind: kind, src: build(as[j], bs[j]), spec: spec, sched: rng.Int63(), expect: expect}
		if closed != nil {
			s.cuts, s.violations = closed(as[j], bs[j])
		}
		if chaos && j%4 == 3 {
			s.chaos = rng.Int63() | 1
		}
		list = append(list, s)
	}
	return list
}

func genBenchStreamMix(rng *rand.Rand) []benchSession {
	const n = 8
	var l []benchSession
	l = benchTemplate(rng, l, 3*n, "pulse-clean", "overlap", VerdictOK, true, [2]int{4, 8}, [2]int{30, 60},
		func(t, p int) string { return progs.PulseClean(t, p, 1) }, nil)
	l = benchTemplate(rng, l, 3*n, "pulse-racy", "racy", VerdictOK, true, [2]int{4, 8}, [2]int{30, 60},
		func(t, p int) string { return progs.PulseRacy(t, p, 1) }, nil)
	l = benchTemplate(rng, l, n, "pulse-violating", "overlap", VerdictViolation, true, [2]int{2, 3}, [2]int{4, 8},
		func(t, p int) string { return progs.PulseViolating(t, p, 1) },
		func(_, p int) (int, int) { return pulseLattice(2, p) })
	l = benchTemplate(rng, l, n, "peterson", "mutex", VerdictOK, true, [2]int{0, 0}, [2]int{0, 0},
		func(int, int) string { return progs.Peterson }, nil)
	l = benchTemplate(rng, l, n, "chan-pipeline", "chan", VerdictOK, true, [2]int{8, 16}, [2]int{0, 0},
		func(v, _ int) string { return progs.ChanPipeline(v) }, nil)
	l = benchTemplate(rng, l, n, "chan-send-closed", "chan", VerdictViolation, true, [2]int{8, 16}, [2]int{0, 0},
		func(v, _ int) string { return progs.ChanSendOnClosed(v) }, nil)
	return l
}

func genBenchWideLattice(rng *rand.Rand) []benchSession {
	n, p2, p3 := 8, [2]int{47, 49}, [2]int{10, 10}
	build := func(p, _ int) string { return progs.PulseViolating(6, p, 1) }
	var l []benchSession
	l = benchTemplate(rng, l, n, "wide-2", "overlap", VerdictViolation, false, p2, [2]int{0, 0}, build,
		func(p, _ int) (int, int) { return pulseLattice(2, p) })
	l = benchTemplate(rng, l, n, "wide-3", "overlap3", VerdictViolation, false, p3, [2]int{0, 0}, build,
		func(p, _ int) (int, int) { return pulseLattice(3, p) })
	l = benchTemplate(rng, l, n, "wide-interval", "interval", VerdictViolation, false, p2, [2]int{0, 0}, build,
		func(p, _ int) (int, int) { return pulseLattice(2, p) })
	return l
}

// benchSessions is perfbench's workload.sessions: the seed is mixed
// with the workload name, and the list is shuffled.
func benchSessions(name string, seed int64, gen func(*rand.Rand) []benchSession) []benchSession {
	h := fnv.New64a()
	h.Write([]byte(name))
	rng := rand.New(rand.NewSource(seed ^ int64(h.Sum64()>>1)))
	list := gen(rng)
	rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
	return list
}

func benchChaosPlan(seed int64) wire.FaultPlan {
	const rate = 0.02
	return wire.FaultPlan{Seed: seed, Drop: rate, Corrupt: rate, Duplicate: rate, Delay: rate, MaxDelay: 4, SpareHello: true}
}

// benchJudge is perfbench's judge: a clean transport must give the
// expected verdict; through chaos only a confident wrong answer fails.
func benchJudge(s benchSession, v Verdict, err error) bool {
	if err != nil {
		return true
	}
	if s.chaos == 0 {
		return v.Verdict != s.expect
	}
	switch v.Verdict {
	case VerdictDegraded:
		return false
	case VerdictOK, VerdictViolation:
		return v.Verdict != s.expect
	}
	return true
}

// runBenchSession is one gompax -connect style client: dial, stream the
// instrumented run (through the fault injector for a chaos session),
// half-close, wait for the verdict.
func runBenchSession(addr string, s benchSession) (Verdict, error) {
	code, err := mtl.Parse(s.src)
	if err != nil {
		return Verdict{}, err
	}
	comp, err := mtl.Compile(code)
	if err != nil {
		return Verdict{}, err
	}
	f := logic.MustParseFormula(benchSpecs[s.spec])
	initial, err := instrument.InitialState(comp.Prog, f)
	if err != nil {
		return Verdict{}, err
	}
	cl, err := Dial("tcp", addr, SessionRequest{Spec: s.spec})
	if err != nil {
		return Verdict{}, err
	}
	var w io.Writer = cl.Conn()
	var fw *wire.FaultWriter
	if s.chaos != 0 {
		fw = wire.NewFaultWriter(w, benchChaosPlan(s.chaos))
		w = fw
	}
	err = instrument.RunStreaming(comp, instrument.PolicyFor(f), initial, sched.NewRandom(s.sched), 0, w)
	if err == nil && fw != nil {
		err = fw.Close()
	}
	if err != nil {
		cl.Close()
		return Verdict{}, err
	}
	if cw, ok := cl.Conn().(interface{ CloseWrite() error }); ok {
		cw.CloseWrite()
	}
	return cl.Finish(time.Minute)
}

// TestBenchmarkVerdictOracle runs both gated benchmark workloads at
// full size through one daemon (MaxSessions 2, the six specs, a store
// on disk) with two concurrent clients, so two sessions of one spec
// share a compiled monitor program. Every session must pass the
// benchmark's judge; every clean pulse-violating session must report
// the closed-form cut and violation counts (a cut-identity bug can
// leave the verdict right and the counts wrong); every clean ok session
// must report no violation. Seeds 1 and 9001 are the benchmark's
// default and held-out seeds; -short keeps the first only.
func TestBenchmarkVerdictOracle(t *testing.T) {
	_, addr := newTestDaemon(t, Config{Specs: benchSpecs, MaxSessions: 2, StorePath: t.TempDir()})
	seeds := []int64{1, 9001}
	if testing.Short() {
		seeds = seeds[:1]
	}
	workloads := []struct {
		name string
		gen  func(*rand.Rand) []benchSession
	}{
		{"stream-mix", genBenchStreamMix},
		{"wide-lattice", genBenchWideLattice},
	}
	closedForms := 0
	for _, seed := range seeds {
		for _, w := range workloads {
			list := benchSessions(w.name, seed, w.gen)
			verdicts := make([]Verdict, len(list))
			errs := make([]error, len(list))
			var next atomic.Int64
			var wg sync.WaitGroup
			for c := 0; c < 2; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := int(next.Add(1) - 1); i < len(list); i = int(next.Add(1) - 1) {
						verdicts[i], errs[i] = runBenchSession(addr, list[i])
					}
				}()
			}
			wg.Wait()
			for i, s := range list {
				v, err := verdicts[i], errs[i]
				where := fmt.Sprintf("%s seed %d session %d (%s, spec %s, chaos %t)", w.name, seed, i, s.kind, s.spec, s.chaos != 0)
				if benchJudge(s, v, err) {
					t.Errorf("%s: FAILED: verdict %q, expected %q, err %v", where, v.Verdict, s.expect, err)
					continue
				}
				if s.chaos != 0 {
					continue
				}
				if s.cuts > 0 {
					closedForms++
					if v.Cuts != s.cuts || v.Violations != s.violations {
						t.Errorf("%s: cuts=%d violations=%d, want cuts=%d violations=%d",
							where, v.Cuts, v.Violations, s.cuts, s.violations)
					}
				}
				if s.expect == VerdictOK && v.Violations != 0 {
					t.Errorf("%s: ok verdict with violations=%d", where, v.Violations)
				}
			}
		}
	}
	// 24 wide-lattice and 6 stream-mix sessions per seed are clean
	// pulse lattices.
	if want := 30 * len(seeds); closedForms != want {
		t.Errorf("%d closed-form checks, want %d", closedForms, want)
	}
}

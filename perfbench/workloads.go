package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"gompax/internal/progs"
	"gompax/internal/serve"
	"gompax/internal/wire"
)

// session is one generated daemon session: the MTL program a client
// runs, the spec the daemon checks it against, the scheduler and chaos
// seeds, and the verdict the generator knows to be right.
type session struct {
	kind   string // template label, for reports
	src    string // MTL source
	spec   string // daemon spec name
	sched  int64  // scheduler seed
	chaos  int64  // FaultWriter seed; 0 sends the stream unharmed
	expect string // serve.VerdictOK or serve.VerdictViolation
}

// workload is a named, seed-determined list of sessions plus the specs
// the daemon registers for it. heapSessions is how many sessions the
// heap pass serves: enough for tens of GC cycles.
type workload struct {
	name         string
	specs        map[string]string
	gen          func(rng *rand.Rand, tiny bool) []session
	heapSessions int
}

// Specs shared by the workloads. interval adds a past-time interval to
// the overlap property: it is violated exactly where the overlap is, but
// its [v0 = 1, v1 = 1) bit depends on the path into a cut, so the
// monitor carries more than one state per cut.
var specFormulas = map[string]string{
	"overlap":  progs.PulseOverlapProperty,
	"racy":     progs.PulseRacyProperty,
	"mutex":    progs.MutualExclusion,
	"chan":     progs.ChanProperty,
	"overlap3": `!(v0 = 1 /\ v1 = 1 /\ v2 = 1)`,
	"interval": `!(v0 = 1 /\ v1 = 1) \/ [v0 = 1, v1 = 1)`,
	"hub":      `hub >= 0`,
}

func specsOf(names ...string) map[string]string {
	m := make(map[string]string, len(names))
	for _, n := range names {
		m[n] = specFormulas[n]
	}
	return m
}

var workloads = []workload{
	{name: "stream-mix", specs: specsOf("overlap", "racy", "mutex", "chan"), gen: genStreamMix, heapSessions: 3200},
	{name: "wide-lattice", specs: specsOf("overlap", "overlap3", "interval"), gen: genWideLattice, heapSessions: 24},
	{name: "deep-fanin", specs: specsOf("hub"), gen: genDeepFanIn, heapSessions: 12},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// sessions returns the workload's session list for a seed. The seed is
// mixed with the workload name so workloads do not share schedules.
func (w workload) sessions(seed int64, tiny bool) []session {
	h := fnv.New64a()
	h.Write([]byte(w.name))
	rng := rand.New(rand.NewSource(seed ^ int64(h.Sum64()>>1)))
	list := w.gen(rng, tiny)
	rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
	return list
}

// stratified draws n values spread evenly over [lo, hi] with seeded
// jitter inside each stratum, in seeded order. Every seed therefore
// yields the same spread of sizes, which keeps the per-run medians
// steady across seeds while the exact sizes still vary.
func stratified(rng *rand.Rand, n, lo, hi int) []int {
	out := make([]int, n)
	span := float64(hi - lo + 1)
	for i := range out {
		out[i] = lo + int((float64(i)+rng.Float64())/float64(n)*span)
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// template adds count sessions of one kind; make builds the source from
// a stratified pair of sizes. Every fourth session of the kind goes
// through the chaos transport when chaos is set.
func template(rng *rand.Rand, list []session, count int, kind, spec, expect string, chaos bool,
	a, b [2]int, build func(a, b int) string) []session {
	as := stratified(rng, count, a[0], a[1])
	bs := stratified(rng, count, b[0], b[1])
	for j := 0; j < count; j++ {
		s := session{kind: kind, src: build(as[j], bs[j]), spec: spec, sched: rng.Int63(), expect: expect}
		if chaos && j%4 == 3 {
			s.chaos = rng.Int63() | 1
		}
		list = append(list, s)
	}
	return list
}

// genStreamMix: many millisecond sessions on narrow lattices, a quarter
// of them through the chaos transport.
func genStreamMix(rng *rand.Rand, tiny bool) []session {
	n := 8 // sessions per weight unit
	if tiny {
		n = 1
	}
	var l []session
	l = template(rng, l, 3*n, "pulse-clean", "overlap", serve.VerdictOK, true, [2]int{4, 8}, [2]int{30, 60},
		func(t, p int) string { return progs.PulseClean(t, p, 1) })
	l = template(rng, l, 3*n, "pulse-racy", "racy", serve.VerdictOK, true, [2]int{4, 8}, [2]int{30, 60},
		func(t, p int) string { return progs.PulseRacy(t, p, 1) })
	l = template(rng, l, n, "pulse-violating", "overlap", serve.VerdictViolation, true, [2]int{2, 3}, [2]int{4, 8},
		func(t, p int) string { return progs.PulseViolating(t, p, 1) })
	l = template(rng, l, n, "peterson", "mutex", serve.VerdictOK, true, [2]int{0, 0}, [2]int{0, 0},
		func(int, int) string { return progs.Peterson })
	l = template(rng, l, n, "chan-pipeline", "chan", serve.VerdictOK, true, [2]int{8, 16}, [2]int{0, 0},
		func(v, _ int) string { return progs.ChanPipeline(v) })
	l = template(rng, l, n, "chan-send-closed", "chan", serve.VerdictViolation, true, [2]int{8, 16}, [2]int{0, 0},
		func(v, _ int) string { return progs.ChanSendOnClosed(v) })
	return l
}

// genWideLattice: violating pulse sessions whose lattices hold about
// 10^4 cuts at widths past 100. Four extra pulse workers per program add
// interpreter bulk outside the property, and the sizes barely vary, so
// the medians sit inside one session size.
func genWideLattice(rng *rand.Rand, tiny bool) []session {
	n, p2, p3 := 8, [2]int{47, 49}, [2]int{10, 10}
	if tiny {
		n, p2, p3 = 1, [2]int{8, 8}, [2]int{3, 3}
	}
	var l []session
	l = template(rng, l, n, "wide-2", "overlap", serve.VerdictViolation, false, p2, [2]int{0, 0},
		func(p, _ int) string { return progs.PulseViolating(6, p, 1) })
	l = template(rng, l, n, "wide-3", "overlap3", serve.VerdictViolation, false, p3, [2]int{0, 0},
		func(p, _ int) string { return progs.PulseViolating(6, p, 1) })
	l = template(rng, l, n, "wide-interval", "interval", serve.VerdictViolation, false, p2, [2]int{0, 0},
		func(p, _ int) string { return progs.PulseViolating(6, p, 1) })
	return l
}

// deepShapes are the deep-fanin (threads, rounds, sessions per list)
// shapes. Both take about the same time; the 2:1 mix keeps the medians
// inside the 1024-thread group instead of between two session sizes.
var deepShapes = [][3]int{{256, 16, 4}, {1024, 1, 8}}

// genDeepFanIn: a seeded alternation of 256- and 1024-thread fan-in
// sessions whose hub writes all carry wide clocks.
func genDeepFanIn(rng *rand.Rand, tiny bool) []session {
	shapes := deepShapes
	if tiny {
		shapes = [][3]int{{64, 2, 1}, {128, 1, 2}}
	}
	var l []session
	for _, sh := range shapes {
		t, r := sh[0], sh[1]
		l = template(rng, l, sh[2], fmt.Sprintf("deep-%d", t), "hub", serve.VerdictOK, false, [2]int{0, 0}, [2]int{0, 0},
			func(int, int) string { return progs.DeepFanIn(t, r) })
	}
	return l
}

// chaosPlan is the fault mix applied to chaos sessions.
func chaosPlan(seed int64) wire.FaultPlan {
	const rate = 0.02
	return wire.FaultPlan{Seed: seed, Drop: rate, Corrupt: rate, Duplicate: rate, Delay: rate, MaxDelay: 4, SpareHello: true}
}

// judge reports whether a session's outcome counts as failed. Clean
// transports must give the expected verdict. Through chaos only a
// confident wrong answer fails: a violation on a clean program, or an
// ok on a violating one; a degraded verdict passes.
func judge(s session, v serve.Verdict, err error) bool {
	if err != nil {
		return true
	}
	if s.chaos == 0 {
		return v.Verdict != s.expect
	}
	switch v.Verdict {
	case serve.VerdictDegraded:
		return false
	case serve.VerdictOK, serve.VerdictViolation:
		return v.Verdict != s.expect
	}
	return true
}

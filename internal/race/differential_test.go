package race

import (
	"fmt"
	"sort"
	"testing"

	"gompax/internal/interp"
	"gompax/internal/mtl"
	"gompax/internal/progs"
	"gompax/internal/sched"
)

// recKind classifies a recorded event for the independent
// happens-before ground truth.
type recKind int

const (
	recRead recKind = iota
	recWrite
	recSync  // acquire/release/signal/wait: a write of the sync variable
	recOther // internal step or spawn marker
)

// recEvent is one event of the concrete execution, in observed order.
type recEvent struct {
	thread int
	name   string
	kind   recKind
	child  int // spawned thread for spawn markers, else -1
}

// recorder forwards every hook to the online Detector while recording
// the concrete execution, so the detector's verdicts can be checked
// against an independently computed causality.
type recorder struct {
	d      *Detector
	events []recEvent
}

func (r *recorder) add(tid int, name string, kind recKind, child int) {
	r.events = append(r.events, recEvent{thread: tid, name: name, kind: kind, child: child})
}

func (r *recorder) Read(tid int, name string, v int64) {
	r.add(tid, name, recRead, -1)
	r.d.Read(tid, name, v)
}
func (r *recorder) Write(tid int, name string, v int64) {
	r.add(tid, name, recWrite, -1)
	r.d.Write(tid, name, v)
}
func (r *recorder) Acquire(tid int, l string)    { r.add(tid, l, recSync, -1); r.d.Acquire(tid, l) }
func (r *recorder) Release(tid int, l string)    { r.add(tid, l, recSync, -1); r.d.Release(tid, l) }
func (r *recorder) Signal(tid int, c string)     { r.add(tid, c, recSync, -1); r.d.Signal(tid, c) }
func (r *recorder) WaitResume(tid int, c string) { r.add(tid, c, recSync, -1); r.d.WaitResume(tid, c) }
func (r *recorder) Internal(tid int)             { r.add(tid, "", recOther, -1); r.d.Internal(tid) }
func (r *recorder) Spawn(parent, child int) {
	r.add(parent, "", recOther, child)
	r.d.Spawn(parent, child)
}

var _ interp.Hooks = (*recorder)(nil)

// closureRaces computes the sync-only happens-before relation of the
// recorded execution from first principles — program order, the total
// order over each synchronization variable's operations, and spawn
// edges, transitively closed over the event indices — and returns the
// key set of conflicting data-access pairs left unordered by it. It
// shares no code with the Detector's vector clocks: it is the ground
// truth the clocks are checked against.
func closureRaces(events []recEvent) []string {
	n := len(events)
	hb := make([][]bool, n)
	for i := range hb {
		hb[i] = make([]bool, n)
	}
	lastOfThread := map[int]int{}
	lastOfSync := map[string]int{}
	pendingSpawn := map[int]int{} // child thread -> spawning event index
	for i, e := range events {
		if prev, ok := lastOfThread[e.thread]; ok {
			hb[prev][i] = true
		} else if s, ok := pendingSpawn[e.thread]; ok {
			hb[s][i] = true
		}
		lastOfThread[e.thread] = i
		if e.kind == recSync {
			if prev, ok := lastOfSync[e.name]; ok {
				hb[prev][i] = true
			}
			lastOfSync[e.name] = i
		}
		if e.child >= 0 {
			pendingSpawn[e.child] = i
		}
	}
	// Transitive closure (events are few; cubic is fine).
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if !hb[i][k] {
				continue
			}
			for j := 0; j < n; j++ {
				if hb[k][j] {
					hb[i][j] = true
				}
			}
		}
	}
	set := map[string]bool{}
	for i := 0; i < n; i++ {
		a := events[i]
		if a.kind != recRead && a.kind != recWrite {
			continue
		}
		for j := i + 1; j < n; j++ {
			b := events[j]
			if b.kind != recRead && b.kind != recWrite {
				continue
			}
			if a.name != b.name || a.thread == b.thread {
				continue
			}
			if a.kind != recWrite && b.kind != recWrite {
				continue
			}
			if hb[i][j] || hb[j][i] {
				continue
			}
			set[pairKey(a.name, a.thread, a.kind == recWrite, b.thread, b.kind == recWrite)] = true
		}
	}
	return sortedKeys(set)
}

func pairKey(name string, t1 int, w1 bool, t2 int, w2 bool) string {
	a := fmt.Sprintf("%d/%v", t1, w1)
	b := fmt.Sprintf("%d/%v", t2, w2)
	if a > b {
		a, b = b, a
	}
	return name + "|" + a + "|" + b
}

func reportKeys(reports []Report) []string {
	set := map[string]bool{}
	for _, r := range reports {
		set[pairKey(r.Var, r.A.Thread, r.A.Write, r.B.Thread, r.B.Write)] = true
	}
	return sortedKeys(set)
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// observe runs one seeded execution of an MTL program with the
// recorder attached and returns the recorder.
func observe(t *testing.T, source string, seed int64) *recorder {
	t.Helper()
	code := mtl.MustCompile(source)
	rec := &recorder{d: NewDetector(len(code.Threads))}
	m := interp.NewMachine(code, rec)
	if _, err := sched.Run(m, sched.NewRandom(seed), 0); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return rec
}

// TestDifferentialRacesExamples cross-checks the Detector on the
// example programs against the transitive-closure ground truth, over
// many observed executions: every conflicting pair the independent
// causality leaves unordered must be predicted by PredictRaces over
// the recorded accesses (and vice versa — the vector clocks encode
// exactly that causality).
func TestDifferentialRacesExamples(t *testing.T) {
	t.Parallel()
	// Note Peterson's algorithm is mutual-exclusion-correct but not
	// data-race-free: its busy-wait flags are unsynchronized by design,
	// so predicted races on them are genuine and simply cross-checked
	// against the ground truth like everything else.
	cases := []struct {
		name   string
		source string
		// racy: at least one seed must predict a race.
		racy bool
	}{
		{"racy", progs.Racy, true},
		{"peterson", progs.Peterson, false},
		{"petersonbroken", progs.PetersonBroken, false},
	}
	for _, tc := range cases {
		anyPredicted := false
		for seed := int64(0); seed < 20; seed++ {
			rec := observe(t, tc.source, seed)
			truth := closureRaces(rec.events)
			predicted := reportKeys(PredictRaces(rec.d.Accesses()))
			online := reportKeys(rec.d.Races())
			if len(predicted) > 0 {
				anyPredicted = true
			}
			// The concrete execution's unordered conflicting pairs are a
			// subset of the predictions (here: exactly the predictions).
			predSet := map[string]bool{}
			for _, k := range predicted {
				predSet[k] = true
			}
			for _, k := range truth {
				if !predSet[k] {
					t.Errorf("%s seed %d: closure race %s not predicted (predicted %v)", tc.name, seed, k, predicted)
				}
			}
			if got, want := fmt.Sprint(predicted), fmt.Sprint(truth); got != want {
				t.Errorf("%s seed %d: predicted %v, closure ground truth %v", tc.name, seed, got, want)
			}
			if got, want := fmt.Sprint(online), fmt.Sprint(predicted); got != want {
				t.Errorf("%s seed %d: online detector %v, offline PredictRaces %v", tc.name, seed, got, want)
			}
		}
		if tc.racy && !anyPredicted {
			t.Errorf("%s: no seed predicted a race", tc.name)
		}
	}
}

package latticecheck

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"gompax/internal/event"
	"gompax/internal/lab"
	"gompax/internal/lattice"
	"gompax/internal/monitor"
	"gompax/internal/predict"
	"gompax/internal/race"
)

// render flattens a predict.Result into a comparable string: every
// violation in report order (the explorers all use the same canonical
// per-level order), then the statistics.
func render(res predict.Result) string {
	var b strings.Builder
	for _, v := range res.Violations {
		fmt.Fprintf(&b, "viol %s level=%d state=%s", v.Cut.Counts().Key(), v.Level, v.State.Key())
		if v.Run != nil {
			b.WriteString(" run=")
			for _, s := range v.Run.States {
				fmt.Fprintf(&b, "%s;", s.Key())
			}
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "stats %+v\n", res.Stats)
	return b.String()
}

// levelWidths reads per-level node counts off a materialized lattice.
func levelWidths(l *lattice.Lattice) []int {
	widths := make([]int, l.NumLevels())
	for k := range widths {
		widths[k] = len(l.Level(k))
	}
	return widths
}

// maxBuildNodes skips the rare random case whose lattice is too large
// to materialize; the differential check needs the ground truth.
const maxBuildNodes = 20000

// TestDifferentialExplorers is the harness: ≥200 random computations
// (40 under -short; GOMPAX_LAB_CASES overrides both), each analyzed by
// the materialized lattice, the offline analyzer, and the online
// analyzer under a scrambled delivery order. All must agree on
// per-level cut counts, total cuts, width, verdicts, violation sets
// and counterexamples.
func TestDifferentialExplorers(t *testing.T) {
	t.Parallel()
	target := lab.Cases(200, 40, testing.Short())
	rng := rand.New(rand.NewSource(2026))
	checked, skipped := 0, 0
	for iter := 0; checked < target; iter++ {
		if iter > 25*target {
			t.Fatalf("only %d cases checked after %d iterations (%d skipped)", checked, iter, skipped)
		}
		c, err := Random(rng)
		if err != nil {
			t.Fatal(err)
		}
		l, err := lattice.Build(c.Comp, maxBuildNodes)
		if err != nil {
			skipped++
			continue
		}
		prog, err := monitor.Compile(c.Formula)
		if err != nil {
			t.Fatal(err)
		}
		cex := iter%2 == 0
		seq, err := predict.Analyze(prog, c.Comp, predict.Options{Counterexamples: cex})
		if err != nil {
			t.Fatal(err)
		}

		// Ground truth 1: the explorer's level geometry matches the
		// materialized lattice exactly. The one exception is a formula
		// already violated at the initial state: analysis stops at the
		// root (a safety violation's shortest witness), so only level 0
		// is explored.
		rootViolated := seq.Violated() && seq.Violations[0].Level == 0
		if rootViolated {
			if !reflect.DeepEqual(seq.Stats.LevelWidths, []int{1}) {
				t.Fatalf("iter %d: root violated but LevelWidths %v", iter, seq.Stats.LevelWidths)
			}
		} else {
			if got, want := seq.Stats.LevelWidths, levelWidths(l); !reflect.DeepEqual(got, want) {
				t.Fatalf("iter %d: LevelWidths %v, lattice %v", iter, got, want)
			}
			if seq.Stats.Cuts != l.NumNodes() {
				t.Fatalf("iter %d: Cuts %d, lattice nodes %d", iter, seq.Stats.Cuts, l.NumNodes())
			}
			if seq.Stats.MaxWidth != l.Width() {
				t.Fatalf("iter %d: MaxWidth %d, lattice width %d", iter, seq.Stats.MaxWidth, l.Width())
			}
		}

		// Ground truth 2: for small lattices, the verdict agrees with
		// checking every run separately.
		if l.NumNodes() <= 300 {
			rep, err := predict.EnumerateRuns(prog, c.Comp, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			if (rep.Violating > 0) != seq.Violated() {
				t.Fatalf("iter %d (formula %q): enumeration says %d/%d runs violate, analyzer says %v",
					iter, c.Formula, rep.Violating, rep.Total, seq.Violated())
			}
		}

		// The online analyzer agrees, whatever the delivery order.
		want := render(seq)
		rng.Intn(7) // unused: drawn so each seed keeps generating the same cases
		shuffled := append([]event.Message(nil), c.Msgs...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		o, err := predict.NewOnline(prog, c.Initial, c.Threads, predict.Options{Counterexamples: cex})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range shuffled {
			if err := o.Feed(m); err != nil {
				t.Fatalf("iter %d: feed: %v", iter, err)
			}
		}
		for i := 0; i < c.Threads; i++ {
			if err := o.FinishThread(i); err != nil {
				t.Fatal(err)
			}
		}
		res, err := o.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := render(res); got != want {
			t.Fatalf("iter %d (formula %q):\n--- offline ---\n%s--- online ---\n%s",
				iter, c.Formula, want, got)
		}
		checked++
	}
	t.Logf("checked %d cases (%d skipped as too large)", checked, skipped)
}

// raceSet canonicalizes race reports into a comparable set of
// (var, thread/kind, thread/kind) triples.
func raceSet(reports []race.Report) []string {
	set := map[string]bool{}
	for _, r := range reports {
		a := fmt.Sprintf("%d/%v", r.A.Thread, r.A.Write)
		b := fmt.Sprintf("%d/%v", r.B.Thread, r.B.Write)
		if a > b {
			a, b = b, a
		}
		set[r.Var+"|"+a+"|"+b] = true
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestDetectorMatchesPredictRaces: over random workloads (sized by
// GOMPAX_LAB_CASES / -short like the other harnesses), the online
// race detector and the offline pairwise check over its recorded
// accesses predict the same races, and the offline check is invariant
// under shuffling its input.
func TestDetectorMatchesPredictRaces(t *testing.T) {
	t.Parallel()
	cases := lab.Cases(200, 40, testing.Short())
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < cases; iter++ {
		c, err := Random(rng)
		if err != nil {
			t.Fatal(err)
		}
		d := race.NewDetector(c.Threads)
		for _, op := range c.Ops {
			switch op.Kind {
			case event.Read:
				d.Read(op.Thread, op.Var, 0)
			case event.Write:
				d.Write(op.Thread, op.Var, op.Value)
			case event.Acquire:
				d.Acquire(op.Thread, op.Var)
			case event.Release:
				d.Release(op.Thread, op.Var)
			case event.Internal:
				d.Internal(op.Thread)
			}
		}
		online := raceSet(d.Races())
		offline := raceSet(race.PredictRaces(d.Accesses()))
		if !reflect.DeepEqual(online, offline) {
			t.Fatalf("iter %d: detector %v, PredictRaces %v", iter, online, offline)
		}
		shuffled := d.Accesses()
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if got := raceSet(race.PredictRaces(shuffled)); !reflect.DeepEqual(got, offline) {
			t.Fatalf("iter %d: shuffled input changed the race set: %v vs %v", iter, got, offline)
		}
	}
}

// TestConcurrentSuccessors drives Computation.Successors from many
// goroutines over a shared Computation; under -race this proves the
// documented immutability.
func TestConcurrentSuccessors(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(3))
	var c Case
	for {
		var err error
		c, err = Random(rng)
		if err != nil {
			t.Fatal(err)
		}
		if len(c.Msgs) >= 4 {
			break
		}
	}
	l, err := lattice.Build(c.Comp, maxBuildNodes)
	if err != nil {
		t.Skip("lattice too large for the fixture seed")
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for id := g; id < l.NumNodes(); id += 8 {
				cut := l.Node(id).Cut
				for _, s := range c.Comp.Successors(cut) {
					if s.Cut.Level() != cut.Level()+1 {
						t.Errorf("successor level %d from level %d", s.Cut.Level(), cut.Level())
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

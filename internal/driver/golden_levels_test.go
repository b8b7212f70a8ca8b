package driver

import (
	"os"
	"reflect"
	"sort"
	"testing"

	"gompax/internal/interp"
	"gompax/internal/lattice"
	"gompax/internal/logic"
	"gompax/internal/monitor"
	"gompax/internal/mtl"
	"gompax/internal/predict"
	"gompax/internal/progs"
	"gompax/internal/race"
	"gompax/internal/sched"
	"gompax/internal/trace"
)

// TestGoldenFig6Levels pins the level-by-level geometry and the
// verdict of the Fig. 6 reproduction. These numbers come straight
// from the paper's figure: a 7-cut lattice over 5 levels whose only
// violating cut is (2,2), the state x=1, y=1, z=1.
func TestGoldenFig6Levels(t *testing.T) {
	t.Parallel()
	f, err := os.Open("../../testdata/crossing_fig6.trace")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	msgs, err := trace.ReadMessages(f)
	if err != nil {
		t.Fatal(err)
	}
	initial := logic.StateFromMap(map[string]int64{"x": -1, "y": 0, "z": 0})
	comp, err := lattice.NewComputation(initial, 2, msgs)
	if err != nil {
		t.Fatal(err)
	}
	prog := monitor.MustCompile(logic.MustParseFormula(progs.CrossingProperty))

	res, err := predict.Analyze(prog, comp, predict.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := predict.Stats{Cuts: 7, Pairs: 10, Levels: 5, MaxWidth: 2, MaxPairWidth: 3, LevelWidths: []int{1, 1, 2, 2, 1}}
	if !reflect.DeepEqual(res.Stats, want) {
		t.Errorf("fig6 stats %+v, want %+v", res.Stats, want)
	}
	if len(res.Violations) != 1 {
		t.Fatalf("fig6 predicted %d violations, want 1", len(res.Violations))
	}
	v := res.Violations[0]
	if v.Cut.Key() != "2,2" || v.Cut.Level() != 4 || v.Cut.State().Key() != "x=1;y=1;z=1" {
		t.Errorf("fig6 violation cut=%s level=%d state=%s, want 2,2/4/x=1;y=1;z=1",
			v.Cut.Key(), v.Cut.Level(), v.Cut.State().Key())
	}
}

// TestGoldenCrossingExample pins the crossing example program: seed 0
// observes a successful execution whose lattice nonetheless contains
// the violation, with the same geometry as the hand-built Fig. 6 trace.
func TestGoldenCrossingExample(t *testing.T) {
	t.Parallel()
	rep, err := Check(Config{
		Source:   progs.Crossing,
		Property: progs.CrossingProperty,
		Seed:     0,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := predict.Stats{Cuts: 7, Pairs: 10, Levels: 5, MaxWidth: 2, MaxPairWidth: 3, LevelWidths: []int{1, 1, 2, 2, 1}}
	if !reflect.DeepEqual(rep.Result.Stats, want) {
		t.Errorf("crossing stats %+v, want %+v", rep.Result.Stats, want)
	}
	if len(rep.Result.Violations) != 1 {
		t.Fatalf("crossing predicted %d violations, want 1", len(rep.Result.Violations))
	}
	if got := rep.Result.Violations[0].Cut.Key(); got != "2,2" {
		t.Errorf("crossing violating cut %s, want 2,2", got)
	}
	if rep.ObservedViolation >= 0 {
		t.Errorf("crossing seed 0 should observe a successful run")
	}
}

// TestGoldenPetersonBroken pins the broken check-then-set protocol:
// seed 4 is the first seed whose observed run respects mutual
// exclusion while the lattice contains the overlap, a 9-cut lattice
// with the violation at cut (1,1) — both threads past the check.
func TestGoldenPetersonBroken(t *testing.T) {
	t.Parallel()
	rep, err := Check(Config{
		Source:   progs.PetersonBroken,
		Property: progs.MutualExclusion,
		Seed:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ObservedViolation >= 0 {
		t.Fatalf("seed 4 observed the violation directly")
	}
	want := predict.Stats{Cuts: 9, Pairs: 11, Levels: 5, MaxWidth: 3, MaxPairWidth: 2, LevelWidths: []int{1, 2, 3, 2, 1}}
	if !reflect.DeepEqual(rep.Result.Stats, want) {
		t.Errorf("peterson stats %+v, want %+v", rep.Result.Stats, want)
	}
	if len(rep.Result.Violations) != 1 {
		t.Fatalf("peterson predicted %d violations, want 1", len(rep.Result.Violations))
	}
	v := rep.Result.Violations[0]
	if v.Cut.Key() != "1,1" || v.Cut.Level() != 2 {
		t.Errorf("peterson violation cut=%s level=%d, want 1,1/2", v.Cut.Key(), v.Cut.Level())
	}
}

// TestGoldenRacyRaces pins the datarace example: from seed 1's single
// observed execution, exactly one race is predicted — the two
// unsynchronized writes of `data` — while the lock-protected writes of
// `flag` stay silent.
func TestGoldenRacyRaces(t *testing.T) {
	t.Parallel()
	code := mtl.MustCompile(progs.Racy)
	rd := race.NewDetector(len(code.Threads))
	m := interp.NewMachine(code, rd)
	if _, err := sched.Run(m, sched.NewRandom(1), 0); err != nil {
		t.Fatal(err)
	}
	races := rd.Races()
	if len(races) != 1 {
		t.Fatalf("racy predicted %d races, want 1: %v", len(races), races)
	}
	r := races[0]
	if r.Var != "data" || !r.A.Write || !r.B.Write {
		t.Errorf("racy race %v, want write/write on data", r)
	}
	threads := []int{r.A.Thread, r.B.Thread}
	sort.Ints(threads)
	if !reflect.DeepEqual(threads, []int{0, 1}) {
		t.Errorf("racy race threads %v, want [0 1]", threads)
	}
	if got := rd.RacyVars(); !reflect.DeepEqual(got, []string{"data"}) {
		t.Errorf("racy vars %v, want [data]", got)
	}
}

package sched_test

import (
	"errors"
	"fmt"
	"testing"

	"gompax/internal/interp"
	"gompax/internal/mtl"
	"gompax/internal/progs"
	"gompax/internal/sched"
)

const incSrc = `
shared x = 0, y = 0;
thread a { x = 1; }
thread b { y = 1; }
`

func TestRunRandomDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) []int {
		m := interp.NewMachine(mtl.MustCompile(incSrc), nil)
		res, err := sched.Run(m, sched.NewRandom(seed), 0)
		if err != nil {
			t.Fatal(err)
		}
		return res.Schedule
	}
	a1, a2 := run(7), run(7)
	if fmt.Sprint(a1) != fmt.Sprint(a2) {
		t.Fatalf("same seed produced different schedules: %v vs %v", a1, a2)
	}
	// Different seeds eventually produce a different interleaving.
	diff := false
	for seed := int64(0); seed < 20; seed++ {
		if fmt.Sprint(run(seed)) != fmt.Sprint(a1) {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatalf("random scheduler never varied across seeds")
	}
}

func TestRoundRobin(t *testing.T) {
	code := mtl.MustCompile(`
shared x = 0, y = 0;
thread a { x = 1; x = 2; x = 3; }
thread b { y = 1; y = 2; y = 3; }
`)
	m := interp.NewMachine(code, nil)
	res, err := sched.Run(m, &sched.RoundRobin{Quantum: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Schedule) < 6 {
		t.Fatalf("schedule too short: %v", res.Schedule)
	}
	// With quantum 2 the first four event steps alternate in pairs.
	want := []int{0, 0, 1, 1}
	for i, w := range want {
		if res.Schedule[i] != w {
			t.Fatalf("schedule = %v, want prefix %v", res.Schedule, want)
		}
	}
}

func TestScriptedReplayReproducesRun(t *testing.T) {
	src := `
shared x = 0, y = 0, z = 0;
mutex m;
thread a { lock(m); x = x + 1; unlock(m); y = x * 2; }
thread b { lock(m); x = x + 10; unlock(m); z = x; }
`
	for seed := int64(0); seed < 30; seed++ {
		m1 := interp.NewMachine(mtl.MustCompile(src), nil)
		res, err := sched.Run(m1, sched.NewRandom(seed), 0)
		if err != nil {
			t.Fatal(err)
		}
		m2 := interp.NewMachine(mtl.MustCompile(src), nil)
		res2, err := sched.Run(m2, &sched.Scripted{Seq: res.Schedule}, 0)
		if err != nil {
			t.Fatalf("seed %d: replay failed: %v", seed, err)
		}
		if fmt.Sprint(m1.SharedState()) != fmt.Sprint(m2.SharedState()) {
			t.Fatalf("seed %d: replay diverged: %v vs %v", seed, m1.SharedState(), m2.SharedState())
		}
		if fmt.Sprint(res.Schedule) != fmt.Sprint(res2.Schedule) {
			t.Fatalf("seed %d: schedules differ: %v vs %v", seed, res.Schedule, res2.Schedule)
		}
	}
}

func TestScriptedReplayWithWaitNotify(t *testing.T) {
	src := `
shared x = 0;
cond c;
thread w { wait(c); x = 1; }
thread n { skip; notify(c); }
`
	for seed := int64(0); seed < 30; seed++ {
		m1 := interp.NewMachine(mtl.MustCompile(src), nil)
		res, err := sched.Run(m1, sched.NewRandom(seed), 1000)
		if err != nil {
			// Some schedules deadlock: notify fires before the waiter
			// parks (a lost wakeup — a real bug in this program).
			var dl *sched.DeadlockError
			if errors.As(err, &dl) {
				continue
			}
			t.Fatal(err)
		}
		m2 := interp.NewMachine(mtl.MustCompile(src), nil)
		if _, err := sched.Run(m2, &sched.Scripted{Seq: res.Schedule}, 1000); err != nil {
			t.Fatalf("seed %d: replay failed: %v (schedule %v)", seed, err, res.Schedule)
		}
		if v, _ := m2.Shared("x"); v != 1 {
			t.Fatalf("seed %d: replay lost the wakeup", seed)
		}
	}
}

func TestRunDeadlockError(t *testing.T) {
	code := mtl.MustCompile(`
shared x = 0;
mutex a, b;
thread t1 { lock(a); skip; lock(b); unlock(b); unlock(a); }
thread t2 { lock(b); skip; lock(a); unlock(a); unlock(b); }
`)
	// Alternate threads strictly: guaranteed deadlock.
	m := interp.NewMachine(code, nil)
	_, err := sched.Run(m, &sched.RoundRobin{Quantum: 1}, 0)
	var dl *sched.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("expected deadlock, got %v", err)
	}
	if len(dl.Blocked) != 2 {
		t.Fatalf("blocked = %v", dl.Blocked)
	}
	if dl.Error() == "" {
		t.Fatalf("empty error text")
	}
}

func TestRunMaxEvents(t *testing.T) {
	code := mtl.MustCompile(`
shared x = 0;
thread spin { while (x == 0) { skip; } }
thread other { skip; }
`)
	m := interp.NewMachine(code, nil)
	if _, err := sched.Run(m, sched.NewRandom(1), 100); err == nil {
		t.Fatalf("expected max-events error")
	}
}

func TestRunRejectsBadScheduler(t *testing.T) {
	code := mtl.MustCompile(incSrc)
	m := interp.NewMachine(code, nil)
	bad := schedulerFunc(func(runnable []int) int { return 94 })
	if _, err := sched.Run(m, bad, 0); err == nil {
		t.Fatalf("expected error for non-runnable choice")
	}
}

type schedulerFunc func([]int) int

func (f schedulerFunc) Next(r []int) int { return f(r) }

func TestExploreCountsInterleavings(t *testing.T) {
	// Two threads, one event each: 2 interleavings.
	m := interp.NewMachine(mtl.MustCompile(incSrc), nil)
	n, err := sched.Explore(m, 0, 0, func(sched.ExploreResult) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	// Each thread contributes its event step and a finishing step; the
	// event orderings are the interesting part: C(2,1) = 2 orders of
	// events; finishing steps add orderings too. Count must be at least
	// 2 and deterministic.
	if n < 2 {
		t.Fatalf("explore found %d interleavings", n)
	}
	m2 := interp.NewMachine(mtl.MustCompile(incSrc), nil)
	n2, _ := sched.Explore(m2, 0, 0, func(sched.ExploreResult) bool { return true })
	if n != n2 {
		t.Fatalf("explore not deterministic: %d vs %d", n, n2)
	}
}

func TestExploreFinalStates(t *testing.T) {
	// Racy increments: final x can be 1 or 2 depending on interleaving.
	src := `
shared x = 0;
thread a { x = x + 1; }
thread b { x = x + 1; }
`
	m := interp.NewMachine(mtl.MustCompile(src), nil)
	finals := map[int64]bool{}
	if _, err := sched.Explore(m, 0, 0, func(r sched.ExploreResult) bool {
		finals[r.Final["x"]] = true
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !finals[1] || !finals[2] {
		t.Fatalf("exploration missed a racy outcome: %v", finals)
	}
}

func TestExploreFindsDeadlock(t *testing.T) {
	src := `
shared x = 0;
mutex a, b;
thread t1 { lock(a); lock(b); unlock(b); unlock(a); }
thread t2 { lock(b); lock(a); unlock(a); unlock(b); }
`
	m := interp.NewMachine(mtl.MustCompile(src), nil)
	deadlocks := 0
	completions := 0
	if _, err := sched.Explore(m, 0, 0, func(r sched.ExploreResult) bool {
		if r.Deadlocked {
			deadlocks++
			if len(r.Blocked) == 0 {
				t.Fatalf("deadlock without blocked threads")
			}
		} else {
			completions++
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if deadlocks == 0 {
		t.Fatalf("exploration missed the deadlock")
	}
	if completions == 0 {
		t.Fatalf("exploration missed the successful interleavings")
	}
}

func TestExploreDeadlockScheduleReplays(t *testing.T) {
	src := `
shared x = 0;
mutex a, b;
thread t1 { lock(a); lock(b); unlock(b); unlock(a); }
thread t2 { lock(b); lock(a); unlock(a); unlock(b); }
`
	var deadSchedule []int
	m := interp.NewMachine(mtl.MustCompile(src), nil)
	if _, err := sched.Explore(m, 0, 0, func(r sched.ExploreResult) bool {
		if r.Deadlocked {
			deadSchedule = r.Schedule
			return false
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if deadSchedule == nil {
		t.Fatalf("no deadlock schedule found")
	}
	// Replaying the schedule reproduces the deadlock.
	m2 := interp.NewMachine(mtl.MustCompile(src), nil)
	_, err := sched.Run(m2, &sched.Scripted{Seq: deadSchedule}, 0)
	var dl *sched.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("replay did not deadlock: %v", err)
	}
}

func TestExploreLimit(t *testing.T) {
	m := interp.NewMachine(mtl.MustCompile(incSrc), nil)
	n, err := sched.Explore(m, 1, 0, func(sched.ExploreResult) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("limit ignored: %d", n)
	}
}

func TestExploreWaitNotifyLostWakeup(t *testing.T) {
	// Exploration must expose both outcomes: waiter parks before the
	// notify (completes) and notify fires first (lost wakeup deadlock).
	src := `
shared x = 0;
cond c;
thread w { wait(c); x = 1; }
thread n { notify(c); }
`
	m := interp.NewMachine(mtl.MustCompile(src), nil)
	sawDeadlock, sawCompletion := false, false
	if _, err := sched.Explore(m, 0, 0, func(r sched.ExploreResult) bool {
		if r.Deadlocked {
			sawDeadlock = true
		} else {
			sawCompletion = true
			if r.Final["x"] != 1 {
				t.Fatalf("completed run without the write")
			}
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !sawDeadlock || !sawCompletion {
		t.Fatalf("deadlock=%v completion=%v; want both", sawDeadlock, sawCompletion)
	}
}

func TestPriorityScheduler(t *testing.T) {
	code := mtl.MustCompile(`
shared x = 0, y = 0;
thread a { x = 1; x = 2; }
thread b { y = 1; y = 2; }
`)
	// b outranks a: all of b's steps come first.
	m := interp.NewMachine(code, nil)
	res, err := sched.Run(m, &sched.Priority{Weights: map[int]int{1: 10}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	sawA := false
	for _, tid := range res.Schedule {
		if tid == 0 {
			sawA = true
		}
		if tid == 1 && sawA {
			t.Fatalf("lower-priority thread ran before higher finished: %v", res.Schedule)
		}
	}
	// Unweighted threads tie-break to the lowest id.
	m2 := interp.NewMachine(code, nil)
	res2, err := sched.Run(m2, &sched.Priority{Weights: map[int]int{}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Schedule[0] != 0 {
		t.Fatalf("tie-break broken: %v", res2.Schedule)
	}
}

// TestRunStepsAllocsPerStep: the run loop reuses one runnable buffer
// across steps, so an uninstrumented run of a lock-heavy program
// allocates almost nothing beyond setting up the machine.
func TestRunStepsAllocsPerStep(t *testing.T) {
	code := mtl.MustCompile(progs.PulseClean(6, 45, 1))
	steps := 0
	allocs := testing.AllocsPerRun(10, func() {
		m := interp.NewMachine(code, interp.NopHooks{})
		steps = 0
		err := sched.RunSteps(m, sched.NewRandom(1), 0, func(int, interp.StepKind) error {
			steps++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	if per := allocs / float64(steps); per >= 0.05 {
		t.Fatalf("%.0f allocations over %d steps: %.3f per step, want < 0.05", allocs, steps, per)
	}
}

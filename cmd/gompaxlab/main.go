// Command gompaxlab runs the declarative scenario lab: a seeded grid
// of workloads with known behavior classes, each pushed through the
// full pipeline (instrumented run, wire session — faulty for chaos
// scenarios — predictive analysis, race prediction, single-trace
// baseline) and scored for precision and recall against ground truth
// from the exhaustive scheduler.
//
// Artifacts (results.jsonl, report.md, provenance.json) land in -out.
// With -gate, the declarative floors and budgets of BENCH_lab.json are
// evaluated and the process exits 1 when any check fails — this is the
// accuracy gate behind `make gate`.
//
// Usage:
//
//	gompaxlab [-grid default|short|golden|deep] [-seed N] [-generated N]
//	          [-out DIR] [-gate BENCH_lab.json] [-q] [-traces]
//
// With -traces, each scenario additionally exports its analysis span
// tree as Chrome trace-event JSON under -out/traces/, linked from the
// report's scenario table.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"gompax/internal/lab"
)

func main() {
	var (
		gridName  = flag.String("grid", "default", "scenario grid: default, short, golden, or deep")
		seed      = flag.Int64("seed", 1, "grid seed (ignored by the golden grid)")
		generated = flag.Int("generated", -1, "random generated scenarios to append (-1 = 4 on the default grid, 0 otherwise)")
		out       = flag.String("out", "_lab", "artifact output directory")
		gatePath  = flag.String("gate", "", "evaluate the floors in this BENCH_lab.json and fail on any miss")
		quiet     = flag.Bool("q", false, "suppress per-scenario progress")
		traces    = flag.Bool("traces", false, "export per-scenario Chrome trace-event JSON under <out>/traces/")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "gompaxlab: unexpected arguments %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}

	grid, err := lab.GridByName(*gridName, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gompaxlab:", err)
		os.Exit(2)
	}
	var gates lab.Gates
	haveGates := *gatePath != ""
	if haveGates {
		gates, err = lab.LoadGates(*gatePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gompaxlab:", err)
			os.Exit(2)
		}
	}

	runner := &lab.Runner{}
	if *traces {
		runner.TraceDir = filepath.Join(*out, "traces")
	}
	n := *generated
	if n < 0 {
		n = 0
		if grid.Name == "default" {
			n = 4
		}
	}
	if n > 0 {
		gen, err := lab.GeneratedScenarios(grid.Seed+500_000, n, runner.Truth)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gompaxlab:", err)
			os.Exit(2)
		}
		grid.Scenarios = append(grid.Scenarios, gen...)
	}

	progress := func(o lab.Outcome) {
		if *quiet {
			return
		}
		truth := "clean"
		if o.Truth.Violating {
			truth = "violating"
		}
		fmt.Fprintf(os.Stderr, "  %-28s truth=%-9s interleavings=%-5d predicted=%-5v races=%d/%d msgs=%d/%d wall=%.0fms\n",
			o.Scenario.Name, truth, o.Truth.Interleavings, o.PredictedViolation,
			len(o.PredictedRaceKeys), len(o.Truth.RaceKeys),
			len(o.PredictedMsgKeys), len(o.Truth.MsgKeys), o.WallMS)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "gompaxlab: grid %q, %d scenarios, seed %d\n", grid.Name, len(grid.Scenarios), grid.Seed)
	}
	outcomes, err := runner.RunGrid(grid, progress)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gompaxlab:", err)
		os.Exit(2)
	}
	scores := lab.ScoreOutcomes(outcomes)

	var checks []lab.Check
	if haveGates {
		checks = gates.Evaluate(outcomes, scores)
	}
	prov := lab.NewProvenance(grid)
	if err := lab.WriteArtifacts(*out, grid, outcomes, scores, checks, prov); err != nil {
		fmt.Fprintln(os.Stderr, "gompaxlab:", err)
		os.Exit(2)
	}
	fmt.Printf("grid %q: %d scenarios — violation P=%.2f R=%.2f, race P=%.2f R=%.2f, msg P=%.2f R=%.2f (artifacts in %s)\n",
		grid.Name, len(outcomes),
		scores.Overall.ViolationPrecision, scores.Overall.ViolationRecall,
		scores.Overall.RacePrecision, scores.Overall.RaceRecall,
		scores.Overall.MsgPrecision, scores.Overall.MsgRecall, *out)
	if haveGates {
		fmt.Print(lab.SummaryTable(checks))
		if !lab.Passed(checks) {
			fmt.Println("accuracy gate: FAIL")
			os.Exit(1)
		}
		fmt.Println("accuracy gate: PASS")
	}
}

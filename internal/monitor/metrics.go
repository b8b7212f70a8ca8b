package monitor

import "gompax/internal/telemetry"

// Monitor telemetry. StepBits is the innermost loop of the whole
// analyzer — one call per distinct (monitor state, atom valuation)
// transition per lattice level — so it must not touch shared
// counters. The predictive explorer already accounts for those steps
// as gompax_lattice_transitions_total, and for the pairs they serve as
// gompax_lattice_pairs_total, via its per-level batched flush; here we
// only count the cold paths: program compilation and single-run trace
// checks, whose step tallies are accumulated in plain ints and flushed
// once per trace.
var (
	mPrograms = telemetry.Default().NewCounter("gompax_monitor_programs_total",
		"Past-time LTL formulas compiled into monitor programs.")
	mTraceChecks = telemetry.Default().NewCounterVec("gompax_monitor_trace_checks_total",
		"Single-run trace checks completed, by final verdict.", "verdict")
	mTraceSteps = telemetry.Default().NewCounter("gompax_monitor_trace_steps_total",
		"Monitor steps taken by single-run trace checks.")
)

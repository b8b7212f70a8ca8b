package lattice

import "gompax/internal/telemetry"

// Lattice telemetry. The level explorers' tallies are accounted for in
// package predict (per-level batched flush); the counters here cover
// explicit materialization, which is rare and already O(nodes), so a
// single batched Add per Build is free.
var (
	mComputations = telemetry.Default().NewCounter("gompax_lattice_computations_total",
		"Computations reconstructed from observer messages.")
	mBuiltNodes = telemetry.Default().NewCounter("gompax_lattice_built_nodes_total",
		"Nodes materialized by explicit lattice construction (Build).")
)

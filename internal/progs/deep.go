package progs

import (
	"fmt"
	"strings"
)

// DeepScales are the deep-thread scenario scales exercised by the lab
// deep grid and the deep clock-parity harness: far past the paper's
// 2–6 thread examples, into the regime where O(threads) vector-clock
// work per event dominates.
var DeepScales = []int{64, 256, 1024}

// DeepFanIn builds the Join-dominated deep-thread workload of the lab's
// deep classes and perfbench's deep-fanin: threads workers each pulse their own
// variable and then write one shared, unsynchronized hub variable,
// rounds times. Algorithm A's write step joins the hub's access clock
// V_a(hub) into the writer's V_i, and V_a(hub) accumulates components
// from every thread that has touched the hub — so after the first
// round nearly every hub write is a wide fan-in join whose flat cost
// is O(threads). The property still watches only v0 and v1, keeping
// the computation lattice tiny while the clocks grow wide.
func DeepFanIn(threads, rounds int) string {
	var b strings.Builder
	b.WriteString("shared ")
	for t := 0; t < threads; t++ {
		fmt.Fprintf(&b, "%s = 0, ", PulseVar(t))
	}
	b.WriteString("hub = 0;\n\n")
	for t := 0; t < threads; t++ {
		fmt.Fprintf(&b, "thread w%d {\n", t)
		for r := 0; r < rounds; r++ {
			fmt.Fprintf(&b, "    %s = 1;\n", PulseVar(t))
			fmt.Fprintf(&b, "    %s = 0;\n", PulseVar(t))
			fmt.Fprintf(&b, "    hub = %d;\n", t+1)
		}
		b.WriteString("}\n\n")
	}
	return b.String()
}

package mvc_test

import (
	"math/rand"
	"testing"

	"gompax/internal/clock"
	"gompax/internal/event"
	"gompax/internal/mvc"
	"gompax/internal/testsupport/causality"
	"gompax/internal/trace"
)

// TestFig6Example replays the paper's Example 2 execution and checks
// that Algorithm A emits exactly the four messages shown in Fig. 6:
// e1:<x=0,T1,(1,0)>, e2:<z=1,T2,(1,1)>, e3:<y=1,T1,(2,0)>,
// e4:<x=1,T2,(1,2)>.
func TestFig6Example(t *testing.T) {
	col := &mvc.Collector{}
	tr := mvc.NewTracker(2, mvc.WritesOf("x", "y", "z"), col)

	// Thread T1 (index 0): x++; ...; y = x + 1
	// Thread T2 (index 1): z = x + 1; ...; x++
	// Observed interleaving producing states
	// (-1,0,0),(0,0,0),(0,0,1),(1,0,1),(1,1,1):
	tr.Read(0, "x", -1) // T1 reads x for x++
	tr.Write(0, "x", 0) // e1: x = 0
	tr.Read(1, "x", 0)  // T2 reads x for z = x+1
	tr.Write(1, "z", 1) // e2: z = 1
	tr.Internal(0)      // T1's irrelevant code (the "...")
	tr.Read(0, "x", 0)  // T1 reads x for y = x+1, before T2's x++
	tr.Internal(1)      // T2's irrelevant code
	tr.Read(1, "x", 0)  // T2 reads x for x++
	tr.Write(1, "x", 1) // e4: x = 1
	tr.Write(0, "y", 1) // e3: y = 1 (the write lands after e4 in M)

	if len(col.Messages) != 4 {
		t.Fatalf("emitted %d messages, want 4", len(col.Messages))
	}
	type want struct {
		varName string
		value   int64
		thread  int
		clk     clock.Ref
	}
	wants := []want{
		{"x", 0, 0, clock.Of(1)},
		{"z", 1, 1, clock.Of(1, 1)},
		{"x", 1, 1, clock.Of(1, 2)},
		{"y", 1, 0, clock.Of(2)},
	}
	for i, w := range wants {
		m := col.Messages[i]
		if m.Event.Var != w.varName || m.Event.Value != w.value || m.Event.Thread != w.thread {
			t.Errorf("message %d = %v, want %s=%d by T%d", i, m, w.varName, w.value, w.thread+1)
		}
		if !clock.Equal(m.Clock, w.clk) {
			t.Errorf("message %d clock = %v, want %v", i, m.Clock, w.clk)
		}
	}

	// Causality structure of Fig. 6: e1 ⊲ {e2, e3, e4}, e2 ⊲ e4,
	// e2 || e3, e3 || e4.
	e1, e2, e4, e3 := col.Messages[0], col.Messages[1], col.Messages[2], col.Messages[3]
	if !e1.Precedes(e2) || !e1.Precedes(e3) || !e1.Precedes(e4) {
		t.Errorf("e1 should precede all others")
	}
	if !e2.Precedes(e4) {
		t.Errorf("e2 should precede e4")
	}
	if !e2.Concurrent(e3) {
		t.Errorf("e2 || e3 expected")
	}
	if !e3.Concurrent(e4) {
		t.Errorf("e3 || e4 expected")
	}
}

// TestLandingExample replays the paper's Example 1 (Fig. 1) successful
// execution: approval, landing, then radio goes down. Exactly three
// relevant messages must be emitted, pairwise concurrent or ordered as
// the lattice of Fig. 5 requires: the three writes are by different
// "actions" but threads T1, T1, T2; approved ⊲ landing (program
// order); radio is concurrent with both? No — thread 2's radio write
// is causally independent of thread 1's writes only if thread 1 never
// read radio after. In the Fig. 1 code, askLandingApproval reads
// radio, so approved causally follows the radio state it read; the
// radio:=0 write then causally follows that read (write-after-read on
// radio). The lattice of Fig. 5 nevertheless contains 3 runs because
// radio:=0 is concurrent with approved:=1 and landing:=1? Checking
// with the MVC algorithm below.
func TestLandingExample(t *testing.T) {
	col := &mvc.Collector{}
	tr := mvc.NewTracker(2, mvc.WritesOf("landing", "approved", "radio"), col)

	// T1: askLandingApproval reads radio, writes approved; then reads
	// approved, writes landing.
	// T2: loop reads radio; eventually writes radio = 0.
	tr.Read(1, "radio", 1)     // T2: while(radio) check
	tr.Read(0, "radio", 1)     // T1: if (radio==0) test
	tr.Write(0, "approved", 1) // T1: approved = 1   (relevant)
	tr.Read(0, "approved", 1)  // T1: if (approved==1)
	tr.Write(0, "landing", 1)  // T1: landing = 1    (relevant)
	tr.Write(1, "radio", 0)    // T2: radio = 0      (relevant)

	if len(col.Messages) != 3 {
		t.Fatalf("emitted %d messages, want 3", len(col.Messages))
	}
	mApproved, mLanding, mRadio := col.Messages[0], col.Messages[1], col.Messages[2]
	if !mApproved.Precedes(mLanding) {
		t.Errorf("approved must precede landing (program order)")
	}
	// The radio:=0 write is causally concurrent with both relevant
	// writes of T1: T1 read radio *before* the write, which orders the
	// read before the write (w-after-r) but places no constraint the
	// other way, and the relevant clock components stay incomparable.
	if !mRadio.Concurrent(mApproved) {
		t.Errorf("radio:=0 should be concurrent with approved:=1; clocks %v vs %v", mRadio.Clock, mApproved.Clock)
	}
	if !mRadio.Concurrent(mLanding) {
		t.Errorf("radio:=0 should be concurrent with landing:=1")
	}
}

// TestReadWriteCausality verifies the three causality shapes the paper
// names: read-write, write-read, write-write; and that read-read is
// NOT a dependency.
func TestReadWriteCausality(t *testing.T) {
	run := func(ops []trace.Op) []event.Message {
		_, msgs := trace.Execute(ops, 2, mvc.Everything())
		return msgs
	}

	// write(T1,x) then read(T2,x): write-read dependency.
	msgs := run([]trace.Op{
		{Thread: 0, Kind: event.Write, Var: "x", Value: 1},
		{Thread: 1, Kind: event.Read, Var: "x", Value: 1},
	})
	if !msgs[0].Precedes(msgs[1]) {
		t.Errorf("write-read must be ordered")
	}

	// read(T1,x) then write(T2,x): read-write dependency.
	msgs = run([]trace.Op{
		{Thread: 0, Kind: event.Read, Var: "x"},
		{Thread: 1, Kind: event.Write, Var: "x", Value: 2},
	})
	if !msgs[0].Precedes(msgs[1]) {
		t.Errorf("read-write must be ordered")
	}

	// write then write: write-write dependency.
	msgs = run([]trace.Op{
		{Thread: 0, Kind: event.Write, Var: "x", Value: 1},
		{Thread: 1, Kind: event.Write, Var: "x", Value: 2},
	})
	if !msgs[0].Precedes(msgs[1]) {
		t.Errorf("write-write must be ordered")
	}

	// read then read: permutable, no dependency.
	msgs = run([]trace.Op{
		{Thread: 0, Kind: event.Write, Var: "y", Value: 9}, // unrelated var to give both threads a clock
		{Thread: 0, Kind: event.Read, Var: "x"},
		{Thread: 1, Kind: event.Read, Var: "x"},
	})
	if !msgs[1].Concurrent(msgs[2]) {
		t.Errorf("read-read must stay concurrent, got %v vs %v", msgs[1].Clock, msgs[2].Clock)
	}
}

// TestLockOrdering checks §3.1: lock acquire/release behave as writes,
// so two critical sections on the same lock are totally ordered.
func TestLockOrdering(t *testing.T) {
	ops := []trace.Op{
		{Thread: 0, Kind: event.Acquire, Var: "#l"},
		{Thread: 0, Kind: event.Write, Var: "x", Value: 1},
		{Thread: 0, Kind: event.Release, Var: "#l"},
		{Thread: 1, Kind: event.Acquire, Var: "#l"},
		{Thread: 1, Kind: event.Write, Var: "y", Value: 2},
		{Thread: 1, Kind: event.Release, Var: "#l"},
	}
	// x and y are different variables: without the lock the two writes
	// would be concurrent; with it, T1's write precedes T2's.
	_, msgs := trace.Execute(ops, 2, mvc.WritesOf("x", "y"))
	if len(msgs) != 2 {
		t.Fatalf("want 2 messages, got %d", len(msgs))
	}
	if !msgs[0].Precedes(msgs[1]) {
		t.Errorf("critical sections must be ordered by the lock")
	}
	// Control: same program without the lock events.
	var unlocked []trace.Op
	for _, op := range ops {
		if op.Kind == event.Write {
			unlocked = append(unlocked, op)
		}
	}
	_, msgs = trace.Execute(unlocked, 2, mvc.WritesOf("x", "y"))
	if !msgs[0].Concurrent(msgs[1]) {
		t.Errorf("without locks the writes must be concurrent")
	}
}

// TestVwLeqVa checks the invariant noted in §3.2: Vw_x ≤ Va_x at all
// times.
func TestVwLeqVa(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ops := trace.RandomOps(rng, trace.GenConfig{Threads: 3, Vars: 3, Length: 400})
	col := &mvc.Collector{}
	tr := mvc.NewTracker(3, mvc.Everything(), col)
	for _, op := range ops {
		tr.Process(event.Event{Thread: op.Thread, Kind: op.Kind, Var: op.Var, Value: op.Value})
		for _, x := range tr.Vars() {
			if !clock.Leq(tr.WriteClock(x), tr.AccessClock(x)) {
				t.Fatalf("Vw_%s = %v not ≤ Va_%s = %v", x, tr.WriteClock(x), x, tr.AccessClock(x))
			}
		}
	}
}

// TestTheorem3 is the central property test: over many random
// executions, the clock comparison of Theorem 3 must agree exactly
// with the ground-truth relevant causality computed independently from
// the definition of ≺.
func TestTheorem3(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 60; iter++ {
		threads := 2 + rng.Intn(4)
		cfg := trace.GenConfig{
			Threads: threads,
			Vars:    1 + rng.Intn(4),
			Length:  20 + rng.Intn(80),
		}
		ops := trace.RandomOps(rng, cfg)
		policy := mvc.WritesOf(trace.VarName(0), trace.VarName(1))
		if iter%3 == 0 {
			policy = mvc.Everything()
		}
		if iter%3 == 1 {
			policy.Reads = true
		}
		events, msgs := trace.Execute(ops, threads, policy)
		gt := causality.Build(events)

		// Map each message back to its event position.
		pos := map[string]int{}
		for i, e := range events {
			pos[e.ID()] = i
		}
		for a := 0; a < len(msgs); a++ {
			for b := 0; b < len(msgs); b++ {
				if a == b {
					continue
				}
				ma, mb := msgs[a], msgs[b]
				ia, ib := pos[ma.Event.ID()], pos[mb.Event.ID()]
				want := gt.Precedes(ia, ib)
				gotComponent := clock.Precedes(ma.Clock, ma.Event.Thread, mb.Clock)
				gotLess := clock.Less(ma.Clock, mb.Clock)
				if gotComponent != want {
					t.Fatalf("iter %d: V[i]≤V'[i] = %v but ground truth %v for %v vs %v",
						iter, gotComponent, want, ma, mb)
				}
				if gotLess != want {
					t.Fatalf("iter %d: V<V' = %v but ground truth %v for %v vs %v",
						iter, gotLess, want, ma, mb)
				}
			}
		}
	}
}

// TestRequirementA verifies Requirement (a): after processing e_i^k,
// V_i[j] equals the number of relevant events of t_j causally
// preceding e_i^k (self-inclusive for j = i when relevant).
func TestRequirementA(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 25; iter++ {
		threads := 2 + rng.Intn(3)
		ops := trace.RandomOps(rng, trace.GenConfig{Threads: threads, Vars: 3, Length: 60})
		policy := mvc.WritesOf(trace.VarName(0), trace.VarName(1))

		// Drive the tracker op by op, snapshotting V_i after each event.
		tr := mvc.NewTracker(threads, policy, nil)
		var events []event.Event
		var clocks []clock.Ref
		for _, op := range ops {
			e := tr.Process(event.Event{Thread: op.Thread, Kind: op.Kind, Var: op.Var, Value: op.Value})
			events = append(events, e)
			clocks = append(clocks, tr.ThreadClock(op.Thread))
		}
		gt := causality.Build(events)
		for pos := range events {
			for j := 0; j < threads; j++ {
				want := gt.RelevantCount(pos, j)
				got := clocks[pos].Get(j)
				if got != want {
					t.Fatalf("iter %d: after %v, V[%d] = %d, want %d",
						iter, events[pos], j, got, want)
				}
			}
		}
	}
}

// TestRequirementsBC verifies Requirements (b) and (c): Va_x[j] and
// Vw_x[j] count the relevant events of t_j causally preceding the most
// recent access/write of x.
func TestRequirementsBC(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for iter := 0; iter < 25; iter++ {
		threads := 2 + rng.Intn(3)
		ops := trace.RandomOps(rng, trace.GenConfig{Threads: threads, Vars: 2, Length: 50})
		policy := mvc.WritesOf(trace.VarName(0), trace.VarName(1))
		tr := mvc.NewTracker(threads, policy, nil)
		var events []event.Event
		type snap struct{ access, write map[string]clock.Ref }
		var snaps []snap
		for _, op := range ops {
			e := tr.Process(event.Event{Thread: op.Thread, Kind: op.Kind, Var: op.Var, Value: op.Value})
			events = append(events, e)
			s := snap{access: map[string]clock.Ref{}, write: map[string]clock.Ref{}}
			for _, x := range tr.Vars() {
				s.access[x] = tr.AccessClock(x)
				s.write[x] = tr.WriteClock(x)
			}
			snaps = append(snaps, s)
		}
		gt := causality.Build(events)
		for pos := range events {
			for x, va := range snaps[pos].access {
				// Requirement (b), read through Lemma 2: Va_x encodes
				// the indexed set (e]a_x — the union over *all* accesses
				// of x so far of their relevant causal pasts. Trailing
				// reads by different threads are mutually concurrent, so
				// the union is the pointwise max over accesses, not just
				// the past of the most recent access.
				for j := 0; j < threads; j++ {
					var want uint64
					for p := 0; p <= pos; p++ {
						if e := events[p]; e.Kind.IsAccess() && e.Var == x {
							if c := gt.RelevantCount(p, j); c > want {
								want = c
							}
						}
					}
					if got := va.Get(j); got != want {
						t.Fatalf("iter %d pos %d: Va_%s[%d] = %d, want %d", iter, pos, x, j, got, want)
					}
				}
			}
			for x, vw := range snaps[pos].write {
				wr := gt.MostRecentWrite(pos, x)
				for j := 0; j < threads; j++ {
					var want uint64
					if wr >= 0 {
						want = gt.RelevantCount(wr, j)
					}
					if got := vw.Get(j); got != want {
						t.Fatalf("iter %d pos %d: Vw_%s[%d] = %d, want %d", iter, pos, x, j, got, want)
					}
				}
			}
		}
	}
}

// TestFork checks dynamic thread creation: the child's events causally
// follow everything the parent did before the fork.
func TestFork(t *testing.T) {
	col := &mvc.Collector{}
	tr := mvc.NewTracker(1, mvc.WritesOf("x", "y"), col)
	tr.Write(0, "x", 1)
	child := tr.Fork(0)
	if child != 1 {
		t.Fatalf("child id = %d, want 1", child)
	}
	tr.Write(child, "y", 2)
	if len(col.Messages) != 2 {
		t.Fatalf("want 2 messages, got %d", len(col.Messages))
	}
	if !col.Messages[0].Precedes(col.Messages[1]) {
		t.Errorf("parent's pre-fork write must precede child's write")
	}
}

func TestPolicy(t *testing.T) {
	p := mvc.WritesOf("x")
	if !p.Relevant(event.Event{Kind: event.Write, Var: "x"}) {
		t.Errorf("write of relevant var must be relevant")
	}
	if p.Relevant(event.Event{Kind: event.Read, Var: "x"}) {
		t.Errorf("read should not be relevant under WritesOf")
	}
	if p.Relevant(event.Event{Kind: event.Write, Var: "y"}) {
		t.Errorf("write of irrelevant var must not be relevant")
	}
	p.Reads = true
	if !p.Relevant(event.Event{Kind: event.Read, Var: "x"}) {
		t.Errorf("read should be relevant with Reads=true")
	}
	if !mvc.Everything().Relevant(event.Event{Kind: event.Internal}) {
		t.Errorf("Everything must mark internals relevant")
	}
	var zero mvc.Policy
	if zero.Relevant(event.Event{Kind: event.Write, Var: "x"}) {
		t.Errorf("zero policy must mark nothing relevant")
	}
}

func TestTrackerAccessors(t *testing.T) {
	tr := mvc.NewTracker(2, mvc.Everything(), nil)
	if tr.Threads() != 2 {
		t.Fatalf("Threads = %d", tr.Threads())
	}
	tr.Write(0, "b", 1)
	tr.Write(0, "a", 1)
	vars := tr.Vars()
	if len(vars) != 2 || vars[0] != "a" || vars[1] != "b" {
		t.Fatalf("Vars = %v", vars)
	}
	if tr.Seq() != 2 || tr.Emitted() != 2 {
		t.Fatalf("Seq=%d Emitted=%d", tr.Seq(), tr.Emitted())
	}
	if !tr.AccessClock("zzz").IsZero() {
		t.Fatalf("unknown var should have a zero access clock")
	}
}

func TestProcessPanicsOnBadThread(t *testing.T) {
	tr := mvc.NewTracker(1, mvc.Everything(), nil)
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for out-of-range thread")
		}
	}()
	tr.Internal(3)
}

// TestTrackerAllocations pins Algorithm A's allocations on a fixed
// 4-thread event list: one per relevant tick (a clock of at most 8
// components is one block), three per Join that neither side
// dominates (node, spine, mixed chunk), and 14 for the tracker
// itself: NewTracker's 7, one record per variable (6) and the
// variables map's storage. No clock is hashed or kept in a table.
func TestTrackerAllocations(t *testing.T) {
	ops := trace.RandomOps(rand.New(rand.NewSource(3)), trace.GenConfig{Threads: 4, Vars: 4, Length: 256})
	policy := mvc.WritesOf(trace.VarName(0), trace.VarName(1))
	var tr *mvc.Tracker
	got := testing.AllocsPerRun(20, func() {
		tr = mvc.NewTracker(4, policy, nil)
		for _, op := range ops {
			tr.Process(event.Event{Thread: op.Thread, Kind: op.Kind, Var: op.Var, Value: op.Value})
		}
	})
	if want := float64(41 + 3*32 + 14); got != want {
		t.Errorf("Algorithm A over the fixed event list costs %v allocations, want %v", got, want)
	}
	ticks := int(tr.Emitted())
	joins := tr.Table().Size() - ticks
	if vars := len(tr.Vars()); ticks != 41 || joins != 32 || vars != 6 {
		t.Errorf("the event list drifted: %d ticks, %d general joins, %d variables; want 41, 32, 6", ticks, joins, vars)
	}
}

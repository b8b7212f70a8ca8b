package serve

import (
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testPending builds a queueable pending with an inert timeout timer.
func testPending(tenant string) *pending {
	p := &pending{tenant: tenant, enq: time.Now()}
	p.timer = time.AfterFunc(time.Hour, func() {})
	return p
}

// fakeClock drives the admitter's token buckets deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestAdmitter(limits map[string]TenantLimits, depth int) (*admitter, *fakeClock) {
	clk := &fakeClock{t: time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)}
	a := &admitter{
		tenants: map[string]*tenantState{},
		depth:   depth,
		now:     clk.now,
	}
	a.cond = sync.NewCond(&a.mu)
	for name, l := range limits {
		l := l
		a.mu.Lock()
		a.getTenant(name, &l)
		a.mu.Unlock()
	}
	return a, clk
}

func TestAdmitterQuotas(t *testing.T) {
	tests := []struct {
		name   string
		limits TenantLimits
		depth  int
		drive  func(t *testing.T, a *admitter, clk *fakeClock)
	}{
		{
			name:   "burst then rate gates",
			limits: TenantLimits{Rate: 1, Burst: 2},
			depth:  16,
			drive: func(t *testing.T, a *admitter, clk *fakeClock) {
				for i := 0; i < 2; i++ {
					if reason, _ := a.offer(testPending("acme")); reason != "" {
						t.Fatalf("burst admission %d refused: %s", i, reason)
					}
				}
				reason, retry := a.offer(testPending("acme"))
				if reason != ReasonQuotaExceeded {
					t.Fatalf("over-burst admission got %q, want quota-exceeded", reason)
				}
				// Bucket empty, rate 1/s: the hint is the full refill.
				if retry < 900*time.Millisecond || retry > time.Second {
					t.Fatalf("retry-after = %v, want ~1s", retry)
				}
				// Refill at 1/s: after 1s exactly one more fits.
				clk.advance(time.Second)
				if reason, _ := a.offer(testPending("acme")); reason != "" {
					t.Fatalf("post-refill admission refused: %s", reason)
				}
				if reason, _ := a.offer(testPending("acme")); reason != ReasonQuotaExceeded {
					t.Fatalf("second post-refill admission got %q, want quota-exceeded", reason)
				}
			},
		},
		{
			name:   "fractional refill hint",
			limits: TenantLimits{Rate: 4, Burst: 1},
			depth:  16,
			drive: func(t *testing.T, a *admitter, clk *fakeClock) {
				if reason, _ := a.offer(testPending("acme")); reason != "" {
					t.Fatalf("first admission refused: %s", reason)
				}
				_, retry := a.offer(testPending("acme"))
				if retry < 200*time.Millisecond || retry > 250*time.Millisecond {
					t.Fatalf("retry-after = %v, want ~250ms at 4/s", retry)
				}
			},
		},
		{
			name:   "queue depth overloads",
			limits: TenantLimits{},
			depth:  2,
			drive: func(t *testing.T, a *admitter, clk *fakeClock) {
				for i := 0; i < 2; i++ {
					if reason, _ := a.offer(testPending("acme")); reason != "" {
						t.Fatalf("admission %d refused: %s", i, reason)
					}
				}
				if reason, _ := a.offer(testPending("acme")); reason != ReasonOverloaded {
					t.Fatalf("over-depth admission got %q, want overloaded", reason)
				}
			},
		},
		{
			name:   "unlimited tenant never rate-gated",
			limits: TenantLimits{},
			depth:  64,
			drive: func(t *testing.T, a *admitter, clk *fakeClock) {
				for i := 0; i < 50; i++ {
					if reason, _ := a.offer(testPending("acme")); reason != "" {
						t.Fatalf("unlimited admission %d refused: %s", i, reason)
					}
				}
			},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			a, clk := newTestAdmitter(map[string]TenantLimits{"acme": tt.limits}, tt.depth)
			tt.drive(t, a, clk)
		})
	}
}

func TestAdmitterInflightCap(t *testing.T) {
	a, _ := newTestAdmitter(map[string]TenantLimits{"acme": {Inflight: 1}}, 16)
	for i := 0; i < 2; i++ {
		if reason, _ := a.offer(testPending("acme")); reason != "" {
			t.Fatal(reason)
		}
	}
	p1 := a.next()
	if p1 == nil {
		t.Fatal("next returned nil with queued work")
	}
	// The cap is reached: a second next() must block until release.
	got := make(chan *pending, 1)
	go func() { got <- a.next() }()
	select {
	case p := <-got:
		t.Fatalf("next() delivered %v past the inflight cap", p)
	case <-time.After(50 * time.Millisecond):
	}
	a.release(p1.ts)
	select {
	case p := <-got:
		if p == nil {
			t.Fatal("next() returned nil after release")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("release did not unblock next()")
	}
}

// TestAdmitterWeightedFairOrder pins the smooth-weighted-round-robin
// dequeue: a tenant with rate 3 gets three slots for every one slot of
// a rate-1 tenant, interleaved smoothly rather than in runs.
func TestAdmitterWeightedFairOrder(t *testing.T) {
	a, _ := newTestAdmitter(map[string]TenantLimits{
		"gold":   {Rate: 3, Burst: 100},
		"bronze": {Rate: 1, Burst: 100},
	}, 64)
	for i := 0; i < 8; i++ {
		if reason, _ := a.offer(testPending("gold")); reason != "" {
			t.Fatal(reason)
		}
	}
	for i := 0; i < 4; i++ {
		if reason, _ := a.offer(testPending("bronze")); reason != "" {
			t.Fatal(reason)
		}
	}
	var order []string
	for i := 0; i < 12; i++ {
		p := a.next()
		if p == nil {
			t.Fatalf("next() = nil at pick %d", i)
		}
		order = append(order, p.tenant)
		a.release(p.ts)
	}
	// Smooth WRR with weights 3:1 yields gold,gold,bronze,gold per
	// window of 4 while both queues are non-empty.
	want := []string{"gold", "gold", "bronze", "gold", "gold", "gold", "bronze", "gold"}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("pick order = %v, want prefix %v", order, want)
		}
	}
	// Once gold drains (8 picks: 6 gold by then? count), the rest are
	// bronze — nothing is starved or lost.
	counts := map[string]int{}
	for _, ten := range order {
		counts[ten]++
	}
	if counts["gold"] != 8 || counts["bronze"] != 4 {
		t.Fatalf("pick counts = %v", counts)
	}
}

// TestAdmitterFloodIsolation is the fairness stress test: three
// tenants share a small daemon, one floods it, and the others' p99
// admission latency (dial → OK) stays bounded because the
// weighted-fair dequeue keeps serving them. Run under -race by `make
// race`.
func TestAdmitterFloodIsolation(t *testing.T) {
	_, addr := newTestDaemon(t, Config{
		MaxSessions:  4,
		QueueDepth:   256,
		QueueTimeout: 60 * time.Second,
		IdleTimeout:  60 * time.Second,
		Tenants: map[string]TenantLimits{
			"flood": {Inflight: 2},
			"a":     {},
			"b":     {},
		},
	})
	cleanBlob := crossingBlob(t, cleanProp, 1)

	// The flood: a pile of concurrent sessions on one tenant.
	const floodN = 48
	var floodWG sync.WaitGroup
	var floodOK atomic.Int64
	for i := 0; i < floodN; i++ {
		floodWG.Add(1)
		go func() {
			defer floodWG.Done()
			if v, _, err := runTenantSession(addr, "clean", "flood", cleanBlob); err == nil && v.Verdict == VerdictOK {
				floodOK.Add(1)
			}
		}()
	}

	// The victims: sequential sessions on two quiet tenants, measuring
	// admission latency (Dial returns when OK arrives).
	latencies := make(chan time.Duration, 20)
	var vicWG sync.WaitGroup
	for _, tenant := range []string{"a", "b"} {
		tenant := tenant
		vicWG.Add(1)
		go func() {
			defer vicWG.Done()
			for i := 0; i < 10; i++ {
				start := time.Now()
				c, err := Dial("tcp", addr, SessionRequest{Spec: "clean", Tenant: tenant})
				if err != nil {
					t.Errorf("tenant %s session %d: %v", tenant, i, err)
					return
				}
				latencies <- time.Since(start)
				if _, err := c.Conn().Write(cleanBlob); err != nil {
					t.Errorf("tenant %s session %d write: %v", tenant, i, err)
					c.Close()
					return
				}
				if cw, ok := c.Conn().(interface{ CloseWrite() error }); ok {
					cw.CloseWrite()
				}
				if _, err := c.Finish(30 * time.Second); err != nil {
					t.Errorf("tenant %s session %d finish: %v", tenant, i, err)
					return
				}
			}
		}()
	}
	vicWG.Wait()
	floodWG.Wait()
	close(latencies)

	var all []time.Duration
	for l := range latencies {
		all = append(all, l)
	}
	if len(all) != 20 {
		t.Fatalf("victim sessions admitted = %d, want 20", len(all))
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	p99 := all[len(all)-1] // 20 samples: the max is the p99 bucket
	// Generous bound: a quiet tenant's admission must not queue behind
	// the whole flood (which at 2 inflight and ~tens of ms per session
	// would take far longer than this).
	if p99 > 10*time.Second {
		t.Fatalf("victim p99 admission latency %v with a flooding neighbor", p99)
	}
	if floodOK.Load() == 0 {
		t.Fatal("flood tenant made no progress at all")
	}
}

// runTenantSession is runSession with an explicit tenant.
func runTenantSession(addr, spec, tenant string, blob []byte) (Verdict, string, error) {
	c, err := Dial("tcp", addr, SessionRequest{Spec: spec, Tenant: tenant})
	if err != nil {
		return Verdict{}, "", err
	}
	if _, err := c.Conn().Write(blob); err != nil {
		c.Close()
		return Verdict{}, c.ID(), err
	}
	if cw, ok := c.Conn().(interface{ CloseWrite() error }); ok {
		cw.CloseWrite()
	}
	v, err := c.Finish(30 * time.Second)
	return v, c.ID(), err
}

// TestDaemonQuotaReject drives a rate-limited tenant past its burst
// through the real wire protocol and checks the explicit reject line
// carries the reason and a usable retry hint.
func TestDaemonQuotaReject(t *testing.T) {
	_, addr := newTestDaemon(t, Config{
		IdleTimeout: 20 * time.Second,
		Tenants: map[string]TenantLimits{
			"metered": {Rate: 0.1, Burst: 1},
		},
	})
	blob := crossingBlob(t, cleanProp, 1)
	if v, _, err := runTenantSession(addr, "clean", "metered", blob); err != nil || v.Verdict != VerdictOK {
		t.Fatalf("first metered session: %+v, %v", v, err)
	}
	_, err := Dial("tcp", addr, SessionRequest{Spec: "clean", Tenant: "metered"})
	re, ok := err.(*RejectError)
	if !ok || re.Reason != ReasonQuotaExceeded {
		t.Fatalf("second metered session err = %v, want quota-exceeded reject", err)
	}
	if re.RetryAfter <= 0 || re.RetryAfter > 10*time.Second {
		t.Fatalf("quota reject retry-after = %v, want (0, 10s]", re.RetryAfter)
	}
	if !re.Retryable() {
		t.Fatal("quota-exceeded reject not marked retryable")
	}
}

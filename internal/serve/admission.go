package serve

import (
	"math"
	"slices"
	"sync"
	"time"
)

// TenantLimits is one tenant's admission quota. Zero values mean
// unlimited: a tenant with no configured limits is only bounded by the
// shared worker pool and its queue depth.
type TenantLimits struct {
	// Rate is the sustained admission rate in sessions per second
	// (token-bucket refill). <= 0 disables rate limiting.
	Rate float64
	// Burst is the token-bucket capacity — how many sessions may
	// arrive back to back before the rate gates them. <= 0 defaults
	// to max(1, Rate).
	Burst int
	// Inflight caps the tenant's concurrently-analyzed sessions;
	// excess sessions wait in the tenant's queue. <= 0 is unlimited.
	Inflight int
}

// tenantState is one tenant's admission bookkeeping: a token bucket
// gating arrivals, a FIFO of admitted-but-unscheduled connections, and
// the smooth-weighted-round-robin state used to pick the next tenant.
type tenantState struct {
	name       string
	configured bool // listed in Config.Tenants: kept for the daemon's lifetime
	limits     TenantLimits
	weight     int // WRR share: max(1, int(Rate)), so paying tenants get more slots
	current    int // smooth WRR accumulator
	tokens     float64
	last       time.Time
	queue      []*pending
	inflight   int
}

func (ts *tenantState) burst() float64 {
	if ts.limits.Burst > 0 {
		return float64(ts.limits.Burst)
	}
	return math.Max(1, ts.limits.Rate)
}

// admitter is the per-tenant admission scheduler between the accept
// loops and the worker pool: offer() gates arrivals by tenant quota,
// next() hands workers the next session by weighted-fair order.
type admitter struct {
	mu      sync.Mutex
	cond    *sync.Cond
	tenants map[string]*tenantState
	order   []*tenantState // stable WRR iteration order
	depth   int            // per-tenant queue bound
	closed  bool
	queued  int
	now     func() time.Time // injectable clock for quota tests
}

func newAdmitter(limits map[string]TenantLimits, depth int) *admitter {
	a := &admitter{
		tenants: map[string]*tenantState{},
		depth:   depth,
		now:     time.Now,
	}
	a.cond = sync.NewCond(&a.mu)
	for name, l := range limits {
		a.getTenant(name, &l)
	}
	return a
}

// getTenant returns (creating on first sight) the tenant's state.
// Unconfigured tenants get unlimited quota and weight 1. Caller holds mu.
func (a *admitter) getTenant(name string, l *TenantLimits) *tenantState {
	if name == "" {
		name = "default"
	}
	if ts := a.tenants[name]; ts != nil {
		return ts
	}
	ts := &tenantState{name: name, configured: l != nil, last: a.now()}
	if l != nil {
		ts.limits = *l
	}
	ts.weight = 1
	if w := int(ts.limits.Rate); w > 1 {
		ts.weight = w
	}
	ts.tokens = ts.burst()
	a.tenants[name] = ts
	a.order = append(a.order, ts)
	return ts
}

// offer runs a handshaken connection through the tenant's quota and
// enqueues it. A non-empty reason means the connection was refused;
// retryAfter > 0 tells the client when trying again could succeed.
func (a *admitter) offer(p *pending) (reason string, retryAfter time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return ReasonDraining, 0
	}
	ts := a.getTenant(p.tenant, nil)

	// Token bucket: refill by elapsed wall-clock, spend one per
	// admitted session, reject with a computed retry hint when dry.
	if ts.limits.Rate > 0 {
		now := a.now()
		ts.tokens = math.Min(ts.burst(), ts.tokens+now.Sub(ts.last).Seconds()*ts.limits.Rate)
		ts.last = now
		if ts.tokens < 1 {
			return ReasonQuotaExceeded, time.Duration((1 - ts.tokens) / ts.limits.Rate * float64(time.Second))
		}
		ts.tokens--
	}

	// Prune queue heads the timeout timer already rejected so zombies
	// do not eat the tenant's queue depth.
	for len(ts.queue) > 0 && ts.queue[0].claimed.Load() {
		ts.queue = ts.queue[1:]
		a.queuedDec()
	}
	if len(ts.queue) >= a.depth {
		return ReasonOverloaded, time.Second
	}
	ts.queue = append(ts.queue, p)
	a.queued++
	mQueuedGauge.Add(1)
	a.cond.Signal()
	return "", 0
}

func (a *admitter) queuedDec() {
	a.queued--
	mQueuedGauge.Add(-1)
}

// next blocks until a session is schedulable and returns it claimed
// (the queue-timeout timer can no longer steal it). Tenants are picked
// by smooth weighted round-robin over those with queued work and free
// inflight budget, so one flooding tenant cannot starve the others.
// Returns nil when the admitter is closed and drained.
func (a *admitter) next() *pending {
	a.mu.Lock()
	defer a.mu.Unlock()
	for {
		var eligible []*tenantState
		total := 0
		for _, ts := range a.order {
			for len(ts.queue) > 0 && ts.queue[0].claimed.Load() {
				ts.queue = ts.queue[1:]
				a.queuedDec()
			}
			if len(ts.queue) == 0 {
				continue
			}
			if ts.limits.Inflight > 0 && ts.inflight >= ts.limits.Inflight {
				continue
			}
			eligible = append(eligible, ts)
			total += ts.weight
		}
		a.forgetIdle()
		if len(eligible) > 0 {
			var best *tenantState
			for _, ts := range eligible {
				ts.current += ts.weight
				// Ties go to the heavier tenant, so the pick order does
				// not depend on the order tenants were registered in.
				if best == nil || ts.current > best.current ||
					(ts.current == best.current && ts.weight > best.weight) {
					best = ts
				}
			}
			best.current -= total
			p := best.queue[0]
			best.queue = best.queue[1:]
			a.queuedDec()
			if !p.claim() {
				continue // timed out between enqueue and pickup
			}
			p.timer.Stop()
			best.inflight++
			p.ts = best
			return p
		}
		if a.closed {
			return nil
		}
		a.cond.Wait()
	}
}

// release returns a finished session's inflight slot and wakes workers
// that may have been gated on the tenant's cap.
func (a *admitter) release(ts *tenantState) {
	a.mu.Lock()
	ts.inflight--
	a.forgetIdle()
	a.mu.Unlock()
	a.cond.Broadcast()
}

// forgetIdle drops the state of every unconfigured tenant with nothing
// queued or in flight, so the admitter holds the configured tenants
// plus those with live sessions, however many names clients send. A
// returning tenant starts afresh. Caller holds mu.
func (a *admitter) forgetIdle() {
	a.order = slices.DeleteFunc(a.order, func(ts *tenantState) bool {
		if ts.configured || len(ts.queue) > 0 || ts.inflight > 0 {
			return false
		}
		delete(a.tenants, ts.name)
		return true
	})
}

// close stops admission and returns every still-queued connection so
// the caller can reject them explicitly. Workers blocked in next()
// wake up and exit.
func (a *admitter) close() []*pending {
	a.mu.Lock()
	a.closed = true
	var rem []*pending
	for _, ts := range a.order {
		rem = append(rem, ts.queue...)
		for range ts.queue {
			a.queuedDec()
		}
		ts.queue = nil
	}
	a.mu.Unlock()
	a.cond.Broadcast()
	return rem
}

// queuedLen reports connections waiting across all tenant queues.
func (a *admitter) queuedLen() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.queued
}

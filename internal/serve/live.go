package serve

import (
	"encoding/json"
	"sort"
	"time"

	"gompax/internal/predict"
	"gompax/internal/telemetry"
	"gompax/internal/telemetry/tracing"
)

// The live-session registry: one entry per admitted session currently
// being analyzed, carrying the analyzer's atomic Progress so the HTTP
// layer (/sessions/{id}/progress, /statusz "sessions" section) can
// answer "where is this session, and is it stalled?" without touching
// the analysis goroutine. Entries exist only between OK and the
// verdict journal; finished sessions answer from the store record.

// liveSession is one in-flight session.
type liveSession struct {
	ID       string
	Spec     string
	Tenant   string
	Start    time.Time
	Trace    tracing.TraceID
	Progress *predict.Progress
}

// trackLive registers an in-flight session; the returned func removes
// it (deferred by the worker).
func (d *Daemon) trackLive(ls *liveSession) func() {
	d.liveMu.Lock()
	if d.live == nil {
		d.live = map[string]*liveSession{}
	}
	d.live[ls.ID] = ls
	d.liveMu.Unlock()
	return func() {
		d.liveMu.Lock()
		delete(d.live, ls.ID)
		d.liveMu.Unlock()
	}
}

// liveSessionByID returns the in-flight session with that id, or nil.
func (d *Daemon) liveSessionByID(id string) *liveSession {
	d.liveMu.Lock()
	defer d.liveMu.Unlock()
	return d.live[id]
}

// liveSessions snapshots the in-flight sessions, ordered by id.
func (d *Daemon) liveSessions() []*liveSession {
	d.liveMu.Lock()
	out := make([]*liveSession, 0, len(d.live))
	for _, ls := range d.live {
		out = append(out, ls)
	}
	d.liveMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// liveStatus is the /statusz "sessions" section. It implements
// json.Marshaler so PublishStatus can retain it once at daemon start
// and every /statusz scrape samples the registry live — the same
// pull-based discipline the metrics follow (no background goroutine).
type liveStatus struct{ d *Daemon }

// liveStatusEntry is one in-flight session as rendered in /statusz.
type liveStatusEntry struct {
	ID          string                   `json:"id"`
	Spec        string                   `json:"spec"`
	Tenant      string                   `json:"tenant,omitempty"`
	Trace       string                   `json:"trace,omitempty"`
	RunningForS float64                  `json:"running_for_s"`
	Progress    predict.ProgressSnapshot `json:"progress"`
}

func (s liveStatus) MarshalJSON() ([]byte, error) {
	now := time.Now()
	live := s.d.liveSessions()
	entries := make([]liveStatusEntry, 0, len(live))
	for _, ls := range live {
		e := liveStatusEntry{
			ID:          ls.ID,
			Spec:        ls.Spec,
			Tenant:      ls.Tenant,
			RunningForS: now.Sub(ls.Start).Seconds(),
			Progress:    ls.Progress.Snapshot(),
		}
		if ls.Trace != 0 {
			e.Trace = ls.Trace.String()
		}
		entries = append(entries, e)
	}
	return json.Marshal(struct {
		Active   int               `json:"active"`
		Queued   int64             `json:"queued"`
		InFlight []liveStatusEntry `json:"in_flight"`
	}{Active: len(entries), Queued: int64(s.d.adm.queuedLen()), InFlight: entries})
}

// publishLiveStatus registers the "sessions" /statusz section and the
// scrape-time queue-depth sampler for this daemon. Process-global like
// every statusz section: the last daemon constructed in a process
// wins, which only matters in tests.
func (d *Daemon) publishLiveStatus() {
	telemetry.PublishStatus("sessions", liveStatus{d})
	// Re-sample the admission queue depth on every /metrics scrape:
	// the incremental Add/Add(-1) pair keeps the gauge live between
	// scrapes, and the hook pins it to the authoritative count at
	// scrape time.
	telemetry.Default().OnScrape("serve.queue", func() {
		mQueuedGauge.Set(int64(d.adm.queuedLen()))
	})
}

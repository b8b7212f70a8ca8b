package telemetry

import (
	"encoding/json"
	"sync"
)

// Live introspection state backing /healthz and /statusz.
//
// Health: pipeline components report degradation with SetHealth;
// /healthz is 200 while no component is degraded and 503 otherwise,
// echoing the reasons. This is how PR 1's
// Degraded report surfaces live: the observer marks the session
// degraded (stalled channels, lossy threads, missing bye) the moment
// it knows, not after the run ends.
//
// Status: packages publish small JSON-marshalable snapshots under
// named sections (PublishStatus); /statusz serves the merged document.
// The predict package publishes its live Stats — including LevelWidths
// — at every sealed level, so a growing lattice is visible while the
// explorer is inside it.

var health = struct {
	sync.Mutex
	degraded map[string]string // component -> reason
}{degraded: map[string]string{}}

// SetHealth marks a component degraded with a reason.
func SetHealth(component, reason string) {
	health.Lock()
	health.degraded[component] = reason
	health.Unlock()
}

// HealthReport is the /healthz document.
type HealthReport struct {
	Status  string            `json:"status"` // "ok" or "degraded"
	Reasons map[string]string `json:"reasons,omitempty"`
}

// Healthz returns the current health report and whether the process is
// healthy.
func Healthz() (HealthReport, bool) {
	health.Lock()
	defer health.Unlock()
	if len(health.degraded) == 0 {
		return HealthReport{Status: "ok"}, true
	}
	reasons := make(map[string]string, len(health.degraded))
	for k, v := range health.degraded {
		reasons[k] = v
	}
	return HealthReport{Status: "degraded", Reasons: reasons}, false
}

var status = struct {
	sync.Mutex
	sections map[string]any
}{sections: map[string]any{}}

// PublishStatus stores the latest snapshot for a /statusz section.
// Values must be JSON-marshalable; publishers should pass fresh copies
// (the value is retained and marshaled later).
func PublishStatus(section string, v any) {
	status.Lock()
	status.sections[section] = v
	status.Unlock()
}

// ClearStatus removes a section.
func ClearStatus(section string) {
	status.Lock()
	delete(status.sections, section)
	status.Unlock()
}

// StatuszJSON marshals the merged status document with stable key
// order (encoding/json sorts map keys).
func StatuszJSON() ([]byte, error) {
	status.Lock()
	snapshot := make(map[string]any, len(status.sections))
	for k, v := range status.sections {
		snapshot[k] = v
	}
	status.Unlock()
	return json.MarshalIndent(snapshot, "", "  ")
}

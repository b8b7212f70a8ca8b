package observer

import "gompax/internal/telemetry"

// Observer telemetry: session-level counters (one increment per
// session or per fault, never per frame — the wire layer already
// counts frames) and pipeline spans around the drain and session loops.
var (
	olog = telemetry.Logger("observer")

	mSessions = telemetry.Default().NewCounterVec("gompax_observer_sessions_total",
		"Observer sessions consumed, by mode (drain, online for one channel, channels for several).", "mode")
	mMessagesFed = telemetry.Default().NewCounter("gompax_observer_messages_fed_total",
		"Observer messages fed into the online analyzer.")
	mStalledChannels = telemetry.Default().NewCounter("gompax_observer_stalled_channels_total",
		"Channels abandoned after exceeding the idle timeout.")
	mSessionErrors = telemetry.Default().NewCounter("gompax_observer_session_errors_total",
		"Sessions that ended with an unrecoverable error (partial results salvaged).")
)

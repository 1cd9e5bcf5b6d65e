package powifi

import (
	"errors"
	"io"

	"repro/internal/trace"
)

// Trace is a run-scoped recorder for fleet scenarios, the one store of
// a run's spans and scheduling observations (a Telemetry collector on
// the same run views them): a span tree (run → phase → worker → home →
// bin-batch) with wall and CPU time, plus a per-home flight recorder —
// a fixed-size ring of structured events (event-sim milestones, surface
// exact-fallbacks and guard-band hits, coarse-tier fits, guard queries
// and escalations with machine-readable reasons, lifecycle
// boot/brownout transitions, injected faults, retry and quarantine
// decisions) retained for homes that fail or escalate most.
//
// The determinism contract mirrors Telemetry's: tracing is strictly
// out of band — no RNG draws, no event-order changes — so a scenario's
// Report sections are byte-identical with or without it, and the
// summary's deterministic section (event counts, retained rings,
// escalation-reason totals) is bit-for-bit identical at any
// WithWorkers value. Scheduling observations (raw spans, per-home wall
// times, slowest homes) live in the summary's quarantined Sched
// section and legitimately vary with the worker count.
//
// One recorder describes one run: pass a fresh NewTrace to each Run
// whose trace you want isolated.
type Trace = trace.Recorder

// TraceSummary is the exported view of a Trace recorder — the Report's
// "trace" JSON section.
type TraceSummary = trace.Summary

// TraceHomeSummary is one retained home's deterministic forensics in a
// TraceSummary.
type TraceHomeSummary = trace.HomeSummary

// TraceSchedSummary is the scheduling section of a TraceSummary: raw
// spans, wall-time quantiles, slowest homes. Never compare it across
// worker counts.
type TraceSchedSummary = trace.SchedSummary

// TraceDump is one home's serialized flight-recorder ring — the Trace
// payload a quarantined HomeError carries.
type TraceDump = trace.Dump

// TraceEvent is one structured event in a flight-recorder ring.
type TraceEvent = trace.EventRecord

// NewTrace returns an empty tracing recorder for one fleet run.
func NewTrace() *Trace { return trace.NewRecorder() }

// WithTrace attaches a tracing recorder to a fleet scenario. The run
// fills t and the Report gains a Trace section holding its summary;
// quarantined homes in the fleet section's Errors carry their
// flight-recorder dumps. Tracing is execution state, not
// configuration: like WithTelemetry it is excluded from the scenario's
// JSON form, and it conflicts with single-home and experiment modes.
func WithTrace(t *Trace) Option {
	return func(s *Scenario) error {
		if t == nil {
			return errors.New("powifi: nil Trace recorder")
		}
		s.trace, s.set = t, s.set|optTrace
		return nil
	}
}

// WithTraceOutput arranges for the run's trace to be written to w in
// Chrome trace-event JSON (loadable in Perfetto or about://tracing)
// when the run completes. It implies tracing: without an explicit
// WithTrace recorder the scenario creates its own, and the Report
// carries the summary either way. Like WithTrace it is execution
// state, excluded from the scenario JSON, and fleet-only.
func WithTraceOutput(w io.Writer) Option {
	return func(s *Scenario) error {
		if w == nil {
			return errors.New("powifi: nil trace output")
		}
		s.traceTo, s.set = w, s.set|optTraceOut
		return nil
	}
}

package powifi

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/telemetry"
)

// Telemetry is a run-scoped observability collector for fleet
// scenarios: typed counters, gauges and histograms, phase spans with
// wall/CPU timing, and a run manifest (seed, resolved config hash, go
// version, elapsed, homes/sec).
//
// The determinism contract: collection is strictly out of band — no
// RNG draws, no event-order changes — so a scenario's Report sections
// are byte-identical with or without telemetry, and the snapshot's
// work-counter and work-histogram totals are bit-for-bit identical at
// any WithWorkers value: each home's work is folded in once, when the
// run commits the home, in home-index order, so a partial run counts
// exactly the homes it committed. Scheduling diagnostics (the
// snapshot's "sched" section, the shard-occupancy and home wall-time
// histograms, the slowest homes) legitimately vary with the worker
// count; gauges, spans and the manifest's throughput fields are
// wall-clock observations.
//
// One collector describes one run: pass a fresh NewTelemetry to each
// Run whose metrics you want isolated. Snapshots may be taken mid-run
// (the HTTP handler does); a mid-run snapshot describes the homes
// committed so far.
type Telemetry = telemetry.Run

// TelemetrySnapshot is the exported view of a Telemetry collector —
// the Report's "telemetry" JSON section, and the same structure the
// Prometheus and expvar exports render, so the three always agree.
type TelemetrySnapshot = telemetry.Snapshot

// TelemetryManifest is the run-provenance section of a
// TelemetrySnapshot.
type TelemetryManifest = telemetry.Manifest

// TelemetryHistogram is one histogram's summary in a
// TelemetrySnapshot.
type TelemetryHistogram = telemetry.HistogramSnapshot

// TelemetrySpan is one completed phase span (surface warm-up,
// simulate, report write) in a TelemetrySnapshot.
type TelemetrySpan = telemetry.SpanSnapshot

// NewTelemetry returns an empty collector for one fleet run.
func NewTelemetry() *Telemetry { return telemetry.NewRun() }

// WithTelemetry attaches a metrics collector to a fleet scenario. The
// run fills t and the Report gains a Telemetry section holding its
// snapshot. Telemetry is execution state, not configuration: like
// WithProgress it is excluded from the scenario's JSON form, and it
// conflicts with single-home and experiment modes.
func WithTelemetry(t *Telemetry) Option {
	return func(s *Scenario) error {
		if t == nil {
			return errors.New("powifi: nil Telemetry collector")
		}
		s.telemetry, s.set = t, s.set|optTelemetry
		return nil
	}
}

// WithMetricsSink arranges for the run's metrics to be written to w in
// Prometheus text exposition format when the run completes. It implies
// telemetry collection: without an explicit WithTelemetry collector
// the scenario creates its own, and the Report carries the snapshot
// either way. Like WithTelemetry it is execution state, excluded from
// the scenario JSON, and fleet-only.
func WithMetricsSink(w io.Writer) Option {
	return func(s *Scenario) error {
		if w == nil {
			return errors.New("powifi: nil metrics sink")
		}
		s.metricsTo, s.set = w, s.set|optMetricsSink
		return nil
	}
}

// MetricsHandler returns the debug HTTP handler for a collector:
// /metrics serves the Prometheus text export and /debug/vars the
// standard expvar JSON (its "powifi" key is the snapshot). Snapshots
// are taken per request, so a handler mounted before Run serves live
// mid-run metrics — what the CLIs' -metrics-addr flag mounts.
func MetricsHandler(t *Telemetry) http.Handler { return t.Handler() }

// metricsShutdownTimeout bounds how long ServeMetrics' shutdown waits
// for in-flight scrapes: long enough for any real exporter read, short
// enough that a wedged client cannot hold the process open.
const metricsShutdownTimeout = 2 * time.Second

// ServeMetrics serves h (normally MetricsHandler) on ln from a
// background goroutine and returns a function that shuts the server
// down gracefully: new connections stop being accepted immediately,
// but a scrape already in flight is allowed to finish, bounded by a
// short deadline (an abrupt Close would reset a scraper mid-response
// at process exit — exactly when the final metrics matter most). The
// returned function is what the CLIs defer for their -metrics-addr
// listeners.
func ServeMetrics(ln net.Listener, h http.Handler) (shutdown func()) {
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }()
	return func() {
		ctx, cancel := context.WithTimeout(context.Background(), metricsShutdownTimeout)
		defer cancel()
		if srv.Shutdown(ctx) != nil {
			srv.Close() // deadline passed; force the stragglers
		}
	}
}

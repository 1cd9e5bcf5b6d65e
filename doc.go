// Package powifi is a simulation-based reproduction of "Powering the Next
// Billion Devices with Wi-Fi" (Talla, Kellogg, Ransford, Naderiparizi,
// Gollakota, Smith — CoNEXT 2015): the PoWiFi system that delivers far-field
// wireless power from commodity Wi-Fi routers without compromising network
// performance.
//
// # The SDK
//
// The public surface is the composable Scenario API: one builder that
// configures single-home deployments (§6), fleet-scale populations,
// stateful device-lifecycle studies, and the paper's table/figure
// experiments through functional options, executed under a
// context.Context with streaming access and one unified, versioned
// Report.
//
//	sc, err := powifi.NewScenario(
//		powifi.WithHomes(5000),
//		powifi.WithSeed(42),
//		powifi.WithDevices(mix),           // lifecycle engine
//		powifi.WithProgress(func(done, total int) { ... }),
//	)
//	rep, err := sc.Run(ctx)               // *Report, "schema": 1
//	rep.WriteJSON(os.Stdout)
//
// Streaming forms replace the reduced report with Go iterators:
// Scenario.Bins yields a single-home run's logging bins in order, and
// Scenario.Homes yields a fleet's per-home records — in home-index
// order, bit-for-bit identical at any WithWorkers value. Cancelling
// the context stops any run promptly (fleet workers check once per
// logging bin, drain, and exit cleanly); partial results are
// discarded, never silently truncated.
//
// Scenarios also have a declarative JSON form: LoadScenario parses it
// (unknown fields rejected, "schema": 1) and Scenario.MarshalJSON
// emits it, which is what the CLIs' -scenario file.json flag runs.
//
// Fleet sweeps scale two ways. WithCoarse selects the error-bounded
// coarse sampling tier: only anchor bins run the packet-level event
// simulation, the rest are proxied with certified error — boot/silence
// decisions stay bit-identical to the default tier, aggregate
// magnitudes carry a documented ε. WithCheckpoint makes a long sweep
// resumable: the run periodically writes its committed home prefix to
// a file (atomically, removed on success), and re-running the same
// configuration resumes from it with output bit-identical to an
// uninterrupted run at any WithWorkers value.
//
// Long sweeps are hardened against failure. Each home simulates under
// a supervisor: a panic becomes a structured *HomeError naming the
// home, and WithFailurePolicy decides whether the run fails fast (the
// default), retries the home on a fresh sampler, or quarantines it
// into the report's errors section — all workers-invariant, with a
// successful retry byte-identical to never having failed. Checkpoints
// are durable (checksummed, fsynced, previous generation kept as a
// .prev fallback against torn or corrupted writes). WithDeadline and
// WithMaxFailedHomes trade completeness for liveness: a tripped budget
// returns a Report marked partial — covering exactly the committed
// home prefix, resumable via WithCheckpoint — rather than an error
// (the powifi-fleet CLI maps it to exit code 3). See DESIGN.md
// "Failure semantics".
//
// Fleet runs can collect telemetry — counters, histograms, phase spans
// and a run manifest — strictly out of band: WithTelemetry attaches a
// collector (the Report gains an additive "telemetry" section whose
// work totals are bit-for-bit identical at any worker count),
// WithMetricsSink writes the Prometheus text export on completion,
// MetricsHandler serves live /metrics and /debug/vars, and
// ServeMetrics mounts that handler on a listener with graceful
// shutdown. WithTrace deepens that into per-run tracing: a span tree
// (run → phase → worker → home → bin-batch) plus a per-home flight
// recorder whose rings are retained for failed and most-escalated
// homes (the Report gains an additive "trace" section, quarantined
// homes carry their dumps on the *HomeError), and WithTraceOutput
// writes the run's trace as Chrome trace-event JSON for Perfetto.
// Execution-state options (WithTelemetry, WithTrace, WithProgress,
// WithCheckpoint) are excluded from the scenario JSON; attach them to
// a loaded scenario with Scenario.With.
//
// # Implementation
//
// The implementation lives under internal/: an 802.11 DCF simulator
// (internal/mac, internal/medium, internal/phy), the PoWiFi router with its
// power-packet injector and IP_Power queue-threshold machinery
// (internal/router), a transport stack (internal/netstack), RF propagation
// and circuit models (internal/rf, internal/diode), the multi-channel
// harvester with its DC-DC converters and storage elements
// (internal/harvester), the sensing applications (internal/sensors), the
// co-design facade (internal/core), the six-home deployment study
// (internal/deploy), the stateful device-lifecycle engine
// (internal/lifecycle), the fleet-scale sharded runner (internal/fleet),
// and one runner per paper table/figure (internal/experiments). The
// repository's determinism, RNG-discipline, hot-path-allocation and
// SDK-boundary contracts are enforced at compile time by a stdlib-only
// static-analysis suite (internal/lint), run over the whole module by
// the standalone cmd/powifi-lint driver; see DESIGN.md "Static
// enforcement".
//
// Entry points, all on the public SDK:
//
//	cmd/powifi-bench  regenerate any table or figure (thin Scenario shim)
//	cmd/powifi-fleet  fleet-scale deployment study (thin Scenario shim)
//	examples/         six runnable scenarios
//
// See DESIGN.md for the system inventory, the public API contract and
// schema-version policy, and the fleet layer's exact-sharding design.
package powifi

import (
	"io"

	"repro/internal/experiments"
)

// Version identifies this reproduction build. 2.0.0 introduced the
// Scenario SDK and the versioned Report schema.
const Version = "2.0.0"

// Experiments returns the ids of every reproducible table and figure.
func Experiments() []string { return experiments.IDs() }

// DescribeExperiment returns the one-line description of an experiment
// id ("" for unknown ids).
func DescribeExperiment(id string) string { return experiments.Describe(id) }

// RunExperiment regenerates one table or figure, writing its rows to w.
// quick selects the reduced configuration; the false (full) configuration
// reproduces the paper's scale. It returns false for unknown ids.
//
// Deprecated: build a Scenario with WithExperiment (and WithFull for
// the paper-scale configuration) instead; it adds cancellation and the
// versioned Report envelope. RunExperiment remains as a thin shim.
func RunExperiment(id string, w io.Writer, quick bool) bool {
	return experiments.Run(id, w, experiments.Config{Quick: quick})
}

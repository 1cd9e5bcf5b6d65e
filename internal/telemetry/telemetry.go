// Package telemetry is the run-scoped metrics layer for fleet
// simulations: typed counters, gauges and histograms and a run
// manifest, exported as one deterministic Snapshot (JSON section of the
// report), as Prometheus text format, and over an opt-in expvar/debug
// HTTP handler. Its phase spans and scheduling diagnostics are views
// over the run recorder (trace.Recorder) it is bound to (Bind).
//
// # Determinism contract
//
// Telemetry is strictly out of band: it draws no randomness, changes no
// event order, and never feeds back into the simulation, so enabling it
// leaves every simulation output byte-identical. Disabled (a nil *Run),
// every instrumentation call is a nil-receiver no-op — one branch, zero
// allocations — so the hot paths keep their allocation budgets.
//
// Metrics split into two classes:
//
//   - Work counters and histograms (Counter, Histogram) measure what
//     the simulation computed. A fleet home tallies its work on its
//     observation handle (trace.HomeTrace) while it runs; CommitHome
//     folds the tallies, and the home's output, into the counters and
//     the integer-count stats.Sketch histograms at the fleet reducer's
//     commit point, in home-index order. The totals are therefore
//     bit-for-bit identical at any worker count, and a partial run
//     counts exactly the homes it committed.
//   - Scheduling diagnostics (the sched counters, HistShardHomes,
//     HistHomeWallMS, the slowest-homes table) are the recorder's. They
//     measure how the run was executed — sampler pool hits, shard
//     occupancy, per-home wall time — vary with the worker count and
//     must never be compared across parallelism.
//
// Gauges, spans and the manifest's elapsed/throughput fields are wall-
// clock observations and vary run to run by nature.
package telemetry

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
	"repro/internal/trace"
)

// Canonical metric names. The fleet engine and the CLIs agree on these;
// the Prometheus export prefixes them with "powifi_".
const (
	// Work counters: workers-invariant totals.
	CounterHomes              = "homes"
	CounterBins               = "bins"
	CounterSilentBins         = "silent_bins"
	CounterSurfaceHits        = "surface_hits"
	CounterSurfaceExact       = "surface_exact_fallbacks"
	CounterSurfaceGuardBand   = "surface_guard_band_fallbacks"
	CounterLifecycleBoots     = "lifecycle_boots"
	CounterLifecycleBrownouts = "lifecycle_brownouts"
	CounterLifecycleLedger    = "lifecycle_ledger_events"

	// Failure-path counters. Faults/retries/quarantines are decided per
	// home index by the deterministic fault registry and failure policy,
	// so their totals are workers-invariant like any work counter.
	// Checkpoint rotation/fallback counts are I/O-session observations.
	CounterFaultsInjected      = "faults_injected"
	CounterHomeRetries         = "home_retries"
	CounterHomesQuarantined    = "homes_quarantined"
	CounterCheckpointRotations = "checkpoint_rotations"
	CounterCheckpointFallbacks = "checkpoint_fallbacks"

	// Scheduling diagnostics (the snapshot's "sched" section):
	// legitimately vary with the worker count.
	SchedPoolHits   = "sampler_pool_hits"
	SchedPoolMisses = "sampler_pool_misses"

	// Gauges.
	GaugeBinsPerSec   = "bins_per_sec"
	GaugeAllocsPerBin = "allocs_per_bin"

	// Histograms. HistHomeHarvestUW is a work histogram (folded at
	// commit); HistShardHomes and HistHomeWallMS are scheduling
	// diagnostics (homes per worker shard; per-home wall time).
	HistHomeHarvestUW = "home_harvest_uw"
	HistShardHomes    = "shard_homes"
	HistHomeWallMS    = "home_wall_ms"
)

// Run is one simulation run's telemetry collector. The zero of the type
// is not used directly: a nil *Run is the disabled state, and every
// method is nil-receiver safe, so instrumented code carries one pointer
// and pays one branch when telemetry is off. A *Run is safe for
// concurrent use by the run's workers.
type Run struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	manifest Manifest
	// rec is the bound recorder, the store of the run's spans and
	// scheduling diagnostics: own, or a traced run's recorder.
	rec atomic.Pointer[trace.Recorder]
	own *trace.Recorder // tally-only
}

// NewRun returns an empty enabled collector, bound to a tally-only
// recorder of its own.
func NewRun() *Run {
	t := &Run{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		own:      trace.NewTallyRecorder(),
	}
	t.rec.Store(t.own)
	return t
}

// Bind binds t to the recorder a fleet run records into and returns it:
// a traced run's rec or, for an untraced run (nil rec), t's own
// tally-only recorder. On a nil Run it returns rec.
func Bind(t *Run, rec *trace.Recorder) *trace.Recorder {
	if t == nil {
		return rec
	}
	if rec == nil {
		rec = t.own
	}
	t.rec.Store(rec)
	return rec
}

// Counter returns the named work counter, creating it on first use.
// Work counter totals are workers-invariant; returns nil (a no-op
// counter) on a nil Run.
func (t *Run) Counter(name string) *Counter {
	if t == nil {
		return nil
	}
	return metric(t, t.counters, name, func() *Counter { return &Counter{} })
}

// Gauge returns the named gauge, creating it on first use.
func (t *Run) Gauge(name string) *Gauge {
	if t == nil {
		return nil
	}
	return metric(t, t.gauges, name, func() *Gauge { return &Gauge{} })
}

// Histogram returns the named histogram, creating it with the given
// sketch configuration on first use (later calls ignore the bounds).
func (t *Run) Histogram(name string, lo, hi float64, bins int) *Histogram {
	if t == nil {
		return nil
	}
	return metric(t, t.hists, name, func() *Histogram { return &Histogram{s: stats.NewSketch(lo, hi, bins)} })
}

// metric returns the named metric of one of t's maps, creating it with
// mk on first use.
func metric[M any](t *Run, m map[string]*M, name string, mk func() *M) *M {
	t.mu.Lock()
	defer t.mu.Unlock()
	x := m[name]
	if x == nil {
		x = mk()
		m[name] = x
	}
	return x
}

// Span starts a named phase span in the bound recorder and returns its
// closer (trace.Recorder.Span: wall and process CPU time). On a nil Run
// the closer is a no-op.
func (t *Run) Span(name string) func() {
	if t == nil {
		return func() {}
	}
	return t.rec.Load().Span(name)
}

// SetManifest records the run manifest (the engine fills it when the
// run completes). A zero GoVersion is stamped with the runtime's.
func (t *Run) SetManifest(m Manifest) {
	if t == nil {
		return
	}
	if m.GoVersion == "" {
		m.GoVersion = runtime.Version()
	}
	t.mu.Lock()
	t.manifest = m
	t.mu.Unlock()
}

// Manifest is the run's machine-readable provenance: what was measured
// and how fast.
type Manifest struct {
	// Seed is the run's root seed; ConfigHash fingerprints the resolved
	// configuration with the worker count excluded, so two comparable
	// runs hash identically at any parallelism.
	Seed       uint64 `json:"seed"`
	ConfigHash string `json:"config_hash,omitempty"`
	GoVersion  string `json:"go_version,omitempty"`
	// Workers is the parallelism actually used (diagnostic only — no
	// metric under "counters" or "histograms"/work depends on it).
	Workers int `json:"workers,omitempty"`
	// ElapsedS and HomesPerSec are wall-clock throughput.
	ElapsedS    float64 `json:"elapsed_s,omitempty"`
	HomesPerSec float64 `json:"homes_per_sec,omitempty"`
}

// HashConfig fingerprints a configuration value: fnv64a over its
// canonical %+v rendering (fmt sorts map keys, so the rendering is
// deterministic). Callers zero scheduling fields (worker counts) first.
func HashConfig(v any) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", v)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Snapshot is the exported view of a Run: the same structure backs the
// report's "telemetry" JSON section, the Prometheus text export and the
// expvar endpoint, so the three always agree. Counters and the work
// histograms are workers-invariant; Sched, HistShardHomes,
// HistHomeWallMS and SlowHomes are scheduling diagnostics; gauges,
// spans and the manifest's throughput fields are wall-clock
// observations. Spans and the scheduling diagnostics are the bound
// recorder's.
type Snapshot struct {
	Manifest   Manifest                     `json:"manifest"`
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Sched      map[string]uint64            `json:"sched,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Spans      []SpanSnapshot               `json:"spans,omitempty"`
	// SlowHomes lists the run's slowest homes by wall time — the bound
	// recorder's slowest-homes table, a scheduling observation like
	// HistHomeWallMS: never compare it across worker counts.
	SlowHomes []trace.SlowHome `json:"slow_homes,omitempty"`
}

// HistogramSnapshot summarizes one histogram's merged sketch.
type HistogramSnapshot struct {
	N         uint64  `json:"n"`
	Mean      float64 `json:"mean"`
	Min       float64 `json:"min"`
	Max       float64 `json:"max"`
	P50       float64 `json:"p50"`
	P95       float64 `json:"p95"`
	P99       float64 `json:"p99"`
	Underflow uint64  `json:"underflow,omitempty"`
	Overflow  uint64  `json:"overflow,omitempty"`
}

// SpanSnapshot is one completed phase span: surface warm-up, simulate,
// report write.
type SpanSnapshot struct {
	Name  string  `json:"name"`
	WallS float64 `json:"wall_s"`
	CPUS  float64 `json:"cpu_s"`
}

// Snapshot renders the collector's current state. It is safe to call
// concurrently with instrumentation; a snapshot taken after the run
// completes is deterministic in everything but the wall-clock fields.
// Returns the zero Snapshot on a nil Run.
func (t *Run) Snapshot() Snapshot {
	if t == nil {
		return Snapshot{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	snap := Snapshot{Manifest: t.manifest}
	if snap.Manifest.GoVersion == "" {
		snap.Manifest.GoVersion = runtime.Version()
	}
	if len(t.counters) > 0 {
		snap.Counters = make(map[string]uint64, len(t.counters))
		for name, c := range t.counters {
			snap.Counters[name] = c.Value()
		}
	}
	if len(t.gauges) > 0 {
		snap.Gauges = make(map[string]float64, len(t.gauges))
		for name, g := range t.gauges {
			snap.Gauges[name] = g.Value()
		}
	}

	// The scheduling view. Every acquire is a hit or a miss, so the
	// sched section appears once a worker has taken a sampler; the
	// scheduling histograms once a home commits or a worker releases.
	sched := t.rec.Load().Sched()
	if sched.PoolHits+sched.PoolMisses > 0 {
		snap.Sched = map[string]uint64{
			SchedPoolHits:   sched.PoolHits,
			SchedPoolMisses: sched.PoolMisses,
		}
	}
	hists := make(map[string]HistogramSnapshot, len(t.hists)+2)
	for name, h := range t.hists {
		hists[name] = h.snapshot()
	}
	if sk := sched.HomeWallMS; sk.N() > 0 {
		hists[HistHomeWallMS] = summarize(sk)
	}
	if sk := sched.ShardHomes; sk.N() > 0 {
		hists[HistShardHomes] = summarize(sk)
	}
	if len(hists) > 0 {
		snap.Histograms = hists
	}
	for _, sp := range sched.Phases {
		if sp.Name != trace.SpanRun { // the root span is the trace's alone
			snap.Spans = append(snap.Spans,
				SpanSnapshot{Name: sp.Name, WallS: time.Duration(sp.DurNS).Seconds(), CPUS: sp.CPUS})
		}
	}
	snap.SlowHomes = sched.SlowestHomes
	return snap
}

// sortedKeys returns a map's keys in lexical order, for the stable
// text exports.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

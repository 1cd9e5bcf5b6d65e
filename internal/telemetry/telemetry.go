// Package telemetry is the run-scoped observability layer for fleet
// simulations: typed counters, gauges and histograms, phase spans with
// wall/CPU timing, and a run manifest, exported as one deterministic
// Snapshot (JSON section of the report), as Prometheus text format, and
// over an opt-in expvar/debug HTTP handler.
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
//     the simulation computed. Counters are atomic integer adds and
//     histograms are integer-count stats.Sketch shards merged exactly
//     (per worker, via Sketch.TryMerge), so their totals are
//     bit-for-bit identical at any worker count — the same
//     exactly-mergeable machinery the fleet aggregates stand on.
//   - Scheduling diagnostics (SchedCounter, SchedHistogram) measure how
//     the run was executed — sampler pool hits, shard occupancy. They
//     are reported separately because they legitimately vary with the
//     worker count and must never be compared across parallelism.
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
	"time"

	"repro/internal/stats"
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

	// Scheduling diagnostics: legitimately vary with the worker count.
	SchedPoolHits   = "sampler_pool_hits"
	SchedPoolMisses = "sampler_pool_misses"

	// Gauges.
	GaugeBinsPerSec   = "bins_per_sec"
	GaugeAllocsPerBin = "allocs_per_bin"

	// Histograms. HistHomeHarvestUW is a work histogram (per-worker
	// sketch shards, exact merge); HistShardHomes and HistHomeWallMS
	// are scheduling diagnostics (homes per worker shard; per-home wall
	// time).
	HistHomeHarvestUW = "home_harvest_uw"
	HistShardHomes    = "shard_homes"
	HistHomeWallMS    = "home_wall_ms"

	// Phase spans, in the order a fleet run records them.
	SpanSurfaceWarmup = "surface_warmup"
	SpanSimulate      = "simulate"
	SpanReportWrite   = "report_write"
)

// Run is one simulation run's telemetry collector. The zero of the type
// is not used directly: a nil *Run is the disabled state, and every
// method is nil-receiver safe, so instrumented code carries one pointer
// and pays one branch when telemetry is off. A *Run is safe for
// concurrent use by the run's workers.
type Run struct {
	mu       sync.Mutex
	counters map[string]*Counter
	sched    map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	spans    []SpanSnapshot
	manifest Manifest
	slow     []SlowHome

	surface   *SurfaceCounters
	sampler   *SamplerCounters
	lifecycle *LifecycleCounters
	failure   *FailureCounters
}

// NewRun returns an empty enabled collector.
func NewRun() *Run {
	return &Run{
		counters: make(map[string]*Counter),
		sched:    make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named work counter, creating it on first use.
// Work counter totals are workers-invariant; returns nil (a no-op
// counter) on a nil Run.
func (t *Run) Counter(name string) *Counter {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.counters[name]
	if c == nil {
		c = &Counter{}
		t.counters[name] = c
	}
	return c
}

// SchedCounter returns the named scheduling-diagnostic counter: same
// mechanics as Counter, reported under the snapshot's "sched" section
// because its value legitimately varies with the worker count.
func (t *Run) SchedCounter(name string) *Counter {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.sched[name]
	if c == nil {
		c = &Counter{}
		t.sched[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (t *Run) Gauge(name string) *Gauge {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	g := t.gauges[name]
	if g == nil {
		g = &Gauge{}
		t.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// sketch configuration on first use (later calls ignore the bounds).
func (t *Run) Histogram(name string, lo, hi float64, bins int) *Histogram {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	h := t.hists[name]
	if h == nil {
		h = &Histogram{s: stats.NewSketch(lo, hi, bins)}
		t.hists[name] = h
	}
	return h
}

// mergeHistogram folds a worker's sketch shard into the named histogram
// exactly (integer counts, exact extremes — Sketch.TryMerge), so the
// merged distribution is identical no matter how homes were sharded.
func (t *Run) mergeHistogram(name string, shard *stats.Sketch) error {
	if t == nil || shard == nil {
		return nil
	}
	h := t.Histogram(name, shard.Lo, shard.Hi, len(shard.Counts))
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.s.TryMerge(shard)
}

// Span starts a named phase span and returns its closer: wall time from
// the call to the closer, plus the process's CPU time (user+system,
// all threads) consumed in between. Spans append in completion order.
// On a nil Run the closer is a no-op.
func (t *Run) Span(name string) func() {
	if t == nil {
		return func() {}
	}
	w0, c0 := time.Now(), ProcessCPUSeconds()
	return func() {
		wall, cpu := time.Since(w0).Seconds(), ProcessCPUSeconds()-c0
		t.mu.Lock()
		t.spans = append(t.spans, SpanSnapshot{Name: name, WallS: wall, CPUS: cpu})
		t.mu.Unlock()
	}
}

// ObserveSlowHome offers one finished home to the slowest-homes table,
// keeping the top slowHomeCap by wall time (ties to the lower index).
// A scheduling observation; no-op on a nil Run.
func (t *Run) ObserveSlowHome(s SlowHome) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	i := sort.Search(len(t.slow), func(i int) bool {
		if t.slow[i].WallMS != s.WallMS {
			return s.WallMS > t.slow[i].WallMS
		}
		return s.Index < t.slow[i].Index
	})
	if i >= slowHomeCap {
		return
	}
	t.slow = append(t.slow, SlowHome{})
	copy(t.slow[i+1:], t.slow[i:])
	t.slow[i] = s
	if len(t.slow) > slowHomeCap {
		t.slow = t.slow[:slowHomeCap]
	}
}

// slowHomeCap bounds the slowest-homes table.
const slowHomeCap = 8

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
// histograms are workers-invariant; Sched and HistShardHomes are
// scheduling diagnostics; gauges, spans and the manifest's throughput
// fields are wall-clock observations.
type Snapshot struct {
	Manifest   Manifest                     `json:"manifest"`
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Sched      map[string]uint64            `json:"sched,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Spans      []SpanSnapshot               `json:"spans,omitempty"`
	// SlowHomes lists the run's slowest homes by wall time — a
	// scheduling observation like HistHomeWallMS: never compare it
	// across worker counts.
	SlowHomes []SlowHome `json:"slow_homes,omitempty"`
}

// SlowHome is one entry in the slowest-homes table.
type SlowHome struct {
	Index int    `json:"index"`
	Label string `json:"label"`
	// WallMS is the home's simulate wall time; DominantSpan names where
	// it went ("bin-batch" for the event kernel, "stall" for injected
	// stalls, "other" for the residual).
	WallMS       float64 `json:"wall_ms"`
	DominantSpan string  `json:"dominant_span"`
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

// SpanSnapshot is one completed phase span.
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
	if len(t.sched) > 0 {
		snap.Sched = make(map[string]uint64, len(t.sched))
		for name, c := range t.sched {
			snap.Sched[name] = c.Value()
		}
	}
	if len(t.gauges) > 0 {
		snap.Gauges = make(map[string]float64, len(t.gauges))
		for name, g := range t.gauges {
			snap.Gauges[name] = g.Value()
		}
	}
	if len(t.hists) > 0 {
		snap.Histograms = make(map[string]HistogramSnapshot, len(t.hists))
		for name, h := range t.hists {
			snap.Histograms[name] = h.snapshot()
		}
	}
	if len(t.spans) > 0 {
		snap.Spans = append([]SpanSnapshot(nil), t.spans...)
	}
	if len(t.slow) > 0 {
		snap.SlowHomes = append([]SlowHome(nil), t.slow...)
	}
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

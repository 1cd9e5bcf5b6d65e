package telemetry

import (
	"repro/internal/surface"
	"repro/internal/trace"
)

// Per-home harvest histogram resolution. The range mirrors the fleet
// summary's harvest sketch so the telemetry histogram and the report
// CDF describe the same range.
const (
	harvestHiUW = 500
	harvestBins = 2000
)

// SurfaceCounters counts operating-point surface queries by outcome
// straight into the run's surface counters: grid hits, exact-solver
// fallbacks on domain exit, and guard-band triggers near the Seiko
// startup threshold. It is a surface sink for callers outside the
// fleet (core.TempSensorDevice.Tele), which hands it the Outcome of
// every surface query it makes; fleet homes tally on their observation
// handle and fold at commit instead. A nil *SurfaceCounters is a no-op
// sink.
type SurfaceCounters struct {
	hits, exact, guard *Counter
}

// SurfaceOutcome counts one surface query by how it was answered; the
// bin is not used.
//
//powifi:noalloc
func (c *SurfaceCounters) SurfaceOutcome(_ int, out surface.Outcome) {
	if c == nil {
		return
	}
	switch out {
	case surface.OutcomeGuardBand:
		c.guard.Inc()
	case surface.OutcomeExact:
		c.exact.Inc()
	default:
		c.hits.Inc()
	}
}

// SurfaceCounters returns a surface counter group over the run's
// CounterSurfaceHits, CounterSurfaceExact and CounterSurfaceGuardBand
// counters. Nil on a nil Run.
func (t *Run) SurfaceCounters() *SurfaceCounters {
	if t == nil {
		return nil
	}
	return &SurfaceCounters{
		hits:  t.Counter(CounterSurfaceHits),
		exact: t.Counter(CounterSurfaceExact),
		guard: t.Counter(CounterSurfaceGuardBand),
	}
}

// Home is one committed home as the fleet reducer folds it: the work
// tallies of its observation handle (trace.HomeTrace) and its output.
type Home struct {
	trace.Tally
	// Failed marks a home quarantined after its attempts ran out: its
	// work, faults and attempts count, its output does not.
	Failed bool
	// Lifecycle marks a device-lifecycle population, whose transition
	// and ledger counters are reported.
	Lifecycle bool
	// SilentBins, LedgerEvents and HarvestUW are the home's output: its
	// silent logging bins, its lifecycle ledger events (one per bin)
	// and its mean banked harvest in µW.
	SilentBins, LedgerEvents uint64
	HarvestUW                float64
}

// CommitHome folds one committed home's work into the run: its tallies
// and output into the work counters and its mean harvest into
// HistHomeHarvestUW. Its wall time is the recorder's to fold
// (trace.Recorder.CommitHome). The fleet reducer calls it at its commit
// point in home-index order, so the work totals are identical at any
// worker count and a partial run counts exactly its committed prefix.
// No-op on a nil Run.
func (t *Run) CommitHome(h Home) {
	if t == nil {
		return
	}
	var homes, quarantined uint64 = 1, 0
	if h.Failed {
		homes, quarantined = 0, 1
	}
	retries := h.Attempts
	if retries > 0 {
		retries--
	}
	add := func(name string, n uint64) { t.Counter(name).Add(n) }
	add(CounterHomes, homes)
	add(CounterHomesQuarantined, quarantined)
	add(CounterBins, h.Bins)
	add(CounterSilentBins, h.SilentBins)
	add(CounterSurfaceHits, h.SurfaceHits)
	add(CounterSurfaceExact, h.SurfaceExact)
	add(CounterSurfaceGuardBand, h.SurfaceGuard)
	add(CounterFaultsInjected, h.Faults)
	add(CounterHomeRetries, retries)
	if h.Lifecycle {
		add(CounterLifecycleBoots, h.Boots)
		add(CounterLifecycleBrownouts, h.Brownouts)
		add(CounterLifecycleLedger, h.LedgerEvents)
	}
	if !h.Failed {
		t.Histogram(HistHomeHarvestUW, 0, harvestHiUW, harvestBins).Observe(h.HarvestUW)
	}
}

package telemetry

import (
	"sort"

	"repro/internal/surface"
)

// Per-home histogram resolutions. The harvest range mirrors the fleet
// summary's harvest sketch so the telemetry histogram and the report
// CDF describe the same range.
const (
	harvestHiUW = 500
	harvestBins = 2000

	shardHomesHi   = 1 << 16
	shardHomesBins = 256

	homeWallHiMS   = 60_000
	homeWallMSBins = 1200
)

// slowHomeCap bounds the slowest-homes table.
const slowHomeCap = 8

// SurfaceCounters counts operating-point surface queries by outcome
// straight into the run's surface counters: grid hits, exact-solver
// fallbacks on domain exit, and guard-band triggers near the Seiko
// startup threshold. It is a surface sink for callers outside the
// fleet (core.TempSensorDevice.Tele); fleet homes tally on their
// observation handle and fold at commit instead. Nil-safe.
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

// Tally is one home's work tallies. The home's observation handle
// (trace.HomeTrace) keeps them while the home runs; CommitHome folds
// them into the work counters once the home commits.
type Tally struct {
	// Bins counts logging bins that ran the packet-level event
	// simulation.
	Bins uint64
	// SurfaceHits, SurfaceExact and SurfaceGuard count operating-point
	// surface queries by outcome.
	SurfaceHits, SurfaceExact, SurfaceGuard uint64
	// Boots and Brownouts count lifecycle transitions.
	Boots, Brownouts uint64
	// Faults counts injected faults fired and Attempts the attempts
	// made, over every attempt of the home.
	Faults, Attempts uint64
}

// Home is one committed home as the fleet reducer folds it.
type Home struct {
	Tally
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
	// Wall is the home's wall-time record: it feeds HistHomeWallMS and
	// the slowest-homes table.
	Wall SlowHome
}

// CommitHome folds one committed home into the run: its tallies and
// output into the work counters, its mean harvest into
// HistHomeHarvestUW, and its wall time into HistHomeWallMS and the
// slowest-homes table. The fleet reducer calls it at its commit point
// in home-index order, so the work totals are identical at any worker
// count and a partial run counts exactly its committed prefix. No-op on
// a nil Run.
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
	t.Histogram(HistHomeWallMS, 0, homeWallHiMS, homeWallMSBins).Observe(h.Wall.WallMS)
	t.mu.Lock()
	t.slow = InsertTop(t.slow, h.Wall, slowHomeCap, SlowHome.Slower)
	t.mu.Unlock()
}

// ObserveShard records how many homes one worker shard ran, into the
// HistShardHomes scheduling diagnostic. No-op on a nil Run.
func (t *Run) ObserveShard(homes int) {
	t.Histogram(HistShardHomes, 0, shardHomesHi, shardHomesBins).Observe(float64(homes))
}

// Slower orders the slowest-homes tables: longer wall time first, ties
// to the lower home index.
func (s SlowHome) Slower(o SlowHome) bool {
	if s.WallMS != o.WallMS {
		return s.WallMS > o.WallMS
	}
	return s.Index < o.Index
}

// InsertTop inserts x into top, a slice kept sorted under less (best
// first) and bounded at k entries, dropping the weakest entry past k.
// It maintains every bounded table of the run's observers: telemetry's
// and the trace recorder's slowest homes, and the recorder's
// most-escalated homes.
func InsertTop[T any](top []T, x T, k int, less func(a, b T) bool) []T {
	i := sort.Search(len(top), func(i int) bool { return less(x, top[i]) })
	if i >= k {
		return top
	}
	var zero T
	top = append(top, zero)
	copy(top[i+1:], top[i:])
	top[i] = x
	if len(top) > k {
		top = top[:k]
	}
	return top
}

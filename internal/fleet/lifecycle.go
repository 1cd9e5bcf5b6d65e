package fleet

import (
	"math"

	"repro/internal/lifecycle"
	"repro/internal/stats"
)

// Lifecycle sketch resolutions. Update intervals of a responsive
// duty-cycled device sit well under fifteen minutes; state of charge
// is a percentage (the extra bin past 100 keeps a full battery inside
// the range instead of in the overflow counter). Time-to-first-update
// and time-to-full are bounded by the run horizon, so those sketches
// take their upper edge from the resolved configuration.
const (
	intervalHiS  = 900
	intervalBins = 1800
	socHiPct     = 101
	socBins      = 1010
	horizonBins  = 2000
)

// lifeHomeStats is the lifecycle slice of a home's summary: the
// device's time-domain metrics and its per-bin ledger observations,
// reduced in home-index order.
type lifeHomeStats struct {
	kind        lifecycle.Kind
	ttfuS       float64 // +Inf when the device never produced an update
	outageFrac  float64
	updates     float64
	frames      float64
	chargeTimeS float64 // +Inf when a charger never filled
	finalSoC    float64 // NaN for the battery-free sensor
	minSoC      float64
	bins        []lifecycle.BinStats
}

// archResult aggregates one archetype across the fleet: per-home
// reductions plus the pooled per-bin aggregates, all folded at commit
// in home-index order. The JSON form is the checkpoint's per-archetype
// payload.
type archResult struct {
	Homes uint64 `json:"homes"`

	TTFU        *stats.Sketch `json:"ttfu"`
	TTFUW       stats.Welford `json:"ttfu_w"`
	NeverActive uint64        `json:"never_active"` // homes whose device never produced an update

	Outage  *stats.Sketch `json:"outage"` // per-home outage percentage
	OutageW stats.Welford `json:"outage_w"`

	UpdatesW stats.Welford `json:"updates_w"`
	FramesW  stats.Welford `json:"frames_w"`

	ChargeTime   *stats.Sketch `json:"charge_time"`
	ChargeTimeW  stats.Welford `json:"charge_time_w"`
	Charged      uint64        `json:"charged"` // charger homes that reached FullSoC
	NeverCharged uint64        `json:"never_charged"`

	FinalSoCW stats.Welford `json:"final_soc_w"`
	MinSoCW   stats.Welford `json:"min_soc_w"`

	// Pooled per-bin aggregates.
	Interval   *stats.Sketch `json:"interval"` // per-bin mean update interval, s (bins with updates)
	SoC        *stats.Sketch `json:"soc"`      // per-bin state of charge, % (battery-backed kinds)
	OutageBins uint64        `json:"outage_bins"`
	TotalBins  uint64        `json:"total_bins"`
}

func newArchResult(horizonS float64) *archResult {
	return &archResult{
		TTFU:       stats.NewSketch(0, horizonS, horizonBins),
		Outage:     stats.NewSketch(0, socHiPct, socBins),
		ChargeTime: stats.NewSketch(0, horizonS, horizonBins),
		Interval:   stats.NewSketch(0, intervalHiS, intervalBins),
		SoC:        stats.NewSketch(0, socHiPct, socBins),
	}
}

// sketches lists the archetype's sketches in a fixed order, for the
// checkpoint's resolution checks.
func (ar *archResult) sketches() [5]*stats.Sketch {
	return [5]*stats.Sketch{ar.TTFU, ar.Outage, ar.ChargeTime, ar.Interval, ar.SoC}
}

// addHome folds one home's lifecycle scalars and per-bin observations;
// callers invoke it in home-index order (the Welford moments are
// order-sensitive).
func (ar *archResult) addHome(kind lifecycle.Kind, ls lifeHomeStats) {
	ar.Homes++
	for _, b := range ls.bins {
		ar.TotalBins++
		if b.Outage {
			ar.OutageBins++
		}
		if b.Updates > 0 {
			ar.Interval.Add(b.IntervalS)
		}
		if !math.IsNaN(b.SoCPct) {
			ar.SoC.Add(b.SoCPct)
		}
	}
	// Chargers produce no updates by construction; their headline
	// metric is ChargeTime below, so they skip the first-update
	// accounting rather than reporting every home as never-active.
	if !kind.Charger() {
		if math.IsInf(ls.ttfuS, 1) {
			ar.NeverActive++
		} else {
			ar.TTFU.Add(ls.ttfuS)
			ar.TTFUW.Add(ls.ttfuS)
		}
	}
	ar.Outage.Add(ls.outageFrac * 100)
	ar.OutageW.Add(ls.outageFrac * 100)
	ar.UpdatesW.Add(ls.updates)
	ar.FramesW.Add(ls.frames)
	if kind.Charger() {
		if math.IsInf(ls.chargeTimeS, 1) {
			ar.NeverCharged++
		} else {
			ar.ChargeTime.Add(ls.chargeTimeS)
			ar.ChargeTimeW.Add(ls.chargeTimeS)
			ar.Charged++
		}
	}
	if !math.IsNaN(ls.finalSoC) {
		ar.FinalSoCW.Add(ls.finalSoC * 100)
		ar.MinSoCW.Add(ls.minSoC * 100)
	}
}

// ArchetypeSummary is the serialized fleet report for one archetype.
type ArchetypeSummary struct {
	Kind  string `json:"kind"`
	Homes uint64 `json:"homes"`

	TotalBins         uint64  `json:"total_bins"`
	OutageBins        uint64  `json:"outage_bins"`
	OutageBinFraction float64 `json:"outage_bin_fraction"`

	// TimeToFirstUpdateS distributes per-home time to first update over
	// homes whose device ever produced one; HomesNeverActive counts the
	// rest.
	TimeToFirstUpdateS DistSummary `json:"time_to_first_update_s"`
	HomesNeverActive   uint64      `json:"homes_never_active"`

	// HomeOutagePct distributes each home's time-weighted outage share.
	HomeOutagePct DistSummary `json:"home_outage_pct"`

	UpdatesPerHomeMean float64 `json:"updates_per_home_mean"`
	FramesPerHomeMean  float64 `json:"frames_per_home_mean"`

	// UpdateIntervalS pools per-bin mean update intervals fleet-wide.
	UpdateIntervalS DistSummary `json:"update_interval_s"`

	// SoCPct pools per-bin state of charge; the scalar means summarize
	// the per-home trajectory endpoints.
	SoCPct          DistSummary `json:"soc_pct"`
	FinalSoCPctMean float64     `json:"final_soc_pct_mean"`
	MinSoCPctMean   float64     `json:"min_soc_pct_mean"`

	// ChargeTimeS distributes time to full charge over charger homes
	// that reached the policy's FullSoC within the horizon.
	ChargeTimeS  DistSummary `json:"charge_time_s"`
	HomesCharged uint64      `json:"homes_charged"`
}

// LifecycleSummary is the device-lifecycle section of the fleet report,
// present only when the population carries a device mix.
type LifecycleSummary struct {
	// Devices echoes the population's archetype shares.
	Devices lifecycle.Mix `json:"devices"`
	// Archetypes lists the per-archetype aggregates in canonical Kind
	// order, populated kinds only.
	Archetypes []ArchetypeSummary `json:"archetypes"`
}

// summarizeArch derives one archetype's serialized section.
func summarizeArch(k lifecycle.Kind, ar *archResult) ArchetypeSummary {
	s := ArchetypeSummary{
		Kind:               k.String(),
		Homes:              ar.Homes,
		TotalBins:          ar.TotalBins,
		OutageBins:         ar.OutageBins,
		TimeToFirstUpdateS: distFromSketchWelford(ar.TTFU, ar.TTFUW),
		HomesNeverActive:   ar.NeverActive,
		HomeOutagePct:      distFromSketchWelford(ar.Outage, ar.OutageW),
		UpdatesPerHomeMean: ar.UpdatesW.Mean,
		FramesPerHomeMean:  ar.FramesW.Mean,
		UpdateIntervalS:    distFromSketch(ar.Interval),
		SoCPct:             distFromSketch(ar.SoC),
		FinalSoCPctMean:    ar.FinalSoCW.Mean,
		MinSoCPctMean:      ar.MinSoCW.Mean,
		ChargeTimeS:        distFromSketchWelford(ar.ChargeTime, ar.ChargeTimeW),
		HomesCharged:       ar.Charged,
	}
	if ar.TotalBins > 0 {
		s.OutageBinFraction = float64(ar.OutageBins) / float64(ar.TotalBins)
	}
	return s
}

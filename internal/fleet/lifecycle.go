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

// archResult aggregates one archetype across the fleet: per-home
// reductions plus the pooled per-bin aggregates, all folded at commit
// in home-index order. Its JSON form is the checkpoint's per-archetype
// payload (Result.Arch). Charger homes that never filled are not
// counted apart: they are Homes − Charged.
type archResult struct {
	Homes uint64 `json:"homes"`

	TTFU        *stats.Sketch `json:"ttfu"`
	TTFUW       stats.Welford `json:"ttfu_w"`
	NeverActive uint64        `json:"never_active"` // homes whose device never produced an update

	Outage  *stats.Sketch `json:"outage"` // per-home outage percentage
	OutageW stats.Welford `json:"outage_w"`

	UpdatesW stats.Welford `json:"updates_w"`
	FramesW  stats.Welford `json:"frames_w"`

	ChargeTime  *stats.Sketch `json:"charge_time"`
	ChargeTimeW stats.Welford `json:"charge_time_w"`
	Charged     uint64        `json:"charged"` // charger homes that reached FullSoC

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

// sketches lists the archetype's sketches under their checkpoint keys,
// in a fixed order. A nil archetype (a checkpoint that lacks one)
// lists the same keys with nil sketches.
func (ar *archResult) sketches() []namedSketch {
	if ar == nil {
		ar = &archResult{}
	}
	return []namedSketch{
		{"ttfu", ar.TTFU}, {"outage", ar.Outage}, {"charge_time", ar.ChargeTime},
		{"interval", ar.Interval}, {"soc", ar.SoC},
	}
}

// addHome folds one home's device metrics and per-bin ledger
// observations; callers invoke it in home-index order (the Welford
// moments are order-sensitive).
func (ar *archResult) addHome(m lifecycle.Metrics, bins []lifecycle.BinStats) {
	ar.Homes++
	for _, b := range bins {
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
	if !m.Kind.Charger() {
		if math.IsInf(m.FirstUpdateS, 1) {
			ar.NeverActive++
		} else {
			ar.TTFU.Add(m.FirstUpdateS)
			ar.TTFUW.Add(m.FirstUpdateS)
		}
	}
	outagePct := m.OutageFraction() * 100
	ar.Outage.Add(outagePct)
	ar.OutageW.Add(outagePct)
	ar.UpdatesW.Add(m.Updates)
	ar.FramesW.Add(float64(m.Frames))
	if m.Kind.Charger() && !math.IsInf(m.TimeToFullS, 1) {
		ar.ChargeTime.Add(m.TimeToFullS)
		ar.ChargeTimeW.Add(m.TimeToFullS)
		ar.Charged++
	}
	if !math.IsNaN(m.FinalSoC) {
		ar.FinalSoCW.Add(m.FinalSoC * 100)
		ar.MinSoCW.Add(m.MinSoC * 100)
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

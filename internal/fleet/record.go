package fleet

import "repro/internal/lifecycle"

// HomeRecord is one home's streamed summary: the record the Home hook
// (and the facade's Homes iterator) delivers per household, in
// home-index order at any worker count. It carries the synthesized
// household and the same per-home scalars the fleet aggregates fold,
// in a JSON-safe form (optional quantities that can be absent — a
// device that never updated, a battery-free sensor's state of charge —
// are nil pointers rather than ±Inf/NaN).
type HomeRecord struct {
	// Index is the home's fleet index, starting at 0.
	Index int `json:"index"`
	// Home is the synthesized household (deploy config + placement).
	Home Home `json:"home"`
	// MeanCumulativePct is the home's mean cumulative occupancy, %.
	MeanCumulativePct float64 `json:"mean_cumulative_pct"`
	// MeanChannelPct holds mean per-channel occupancy percentages in
	// phy.PoWiFiChannels order (1, 6, 11).
	MeanChannelPct [3]float64 `json:"mean_channel_pct"`
	// MeanHarvestUW is the home's mean harvested power, µW (silent bins
	// contribute zero).
	MeanHarvestUW float64 `json:"mean_harvest_uw"`
	// MeanUpdateRateHz is the home's mean sensor update rate.
	MeanUpdateRateHz float64 `json:"mean_update_rate_hz"`
	// Device carries the home's lifecycle scalars; nil unless the
	// population enables the device-lifecycle engine.
	Device *DeviceRecord `json:"device,omitempty"`
}

// DeviceRecord is the lifecycle slice of a HomeRecord: the archetype
// the home drew and its time-domain metrics.
type DeviceRecord struct {
	Kind string `json:"kind"`
	// FirstUpdateS is the time of the device's first update or frame;
	// nil when it never produced one within the horizon.
	FirstUpdateS *float64 `json:"first_update_s,omitempty"`
	// OutagePct is the time-weighted percentage of the run the device
	// was not operating.
	OutagePct float64 `json:"outage_pct"`
	Updates   float64 `json:"updates"`
	Frames    float64 `json:"frames"`
	// TimeToFullS is when a charger first reached full state of charge;
	// nil when it never filled (and for non-chargers).
	TimeToFullS *float64 `json:"time_to_full_s,omitempty"`
	// FinalSoCPct and MinSoCPct track the battery trajectory endpoints
	// in percent; nil for the battery-free sensor.
	FinalSoCPct *float64 `json:"final_soc_pct,omitempty"`
	MinSoCPct   *float64 `json:"min_soc_pct,omitempty"`
}

// record derives the streamed form of one home's summary.
func (hs homeStats) record() HomeRecord {
	r := HomeRecord{
		Index:             hs.idx,
		Home:              hs.home,
		MeanCumulativePct: hs.means.CumulativePct,
		MeanChannelPct:    hs.means.ChannelPct,
		MeanHarvestUW:     hs.means.BankedHarvestUW,
		MeanUpdateRateHz:  hs.means.SensorRate,
	}
	if hs.hasLife {
		ls := hs.life
		// The Inf/NaN-to-nil "never happened" convention is owned by
		// lifecycle.FinitePtr, shared with lifecycle.Section.
		r.Device = &DeviceRecord{
			Kind:         ls.kind.String(),
			FirstUpdateS: lifecycle.FinitePtr(ls.ttfuS),
			OutagePct:    ls.outageFrac * 100,
			Updates:      ls.updates,
			Frames:       ls.frames,
			TimeToFullS:  lifecycle.FinitePtr(ls.chargeTimeS),
			FinalSoCPct:  lifecycle.FinitePtr(ls.finalSoC * 100),
			MinSoCPct:    lifecycle.FinitePtr(ls.minSoC * 100),
		}
	}
	return r
}

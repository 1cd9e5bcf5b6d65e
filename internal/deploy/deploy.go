// Package deploy reproduces the six-home deployment study of §6: a PoWiFi
// router replaces each home's router for 24 hours while the occupants use
// it normally, with per-channel occupancy logged at 60-second resolution
// (Fig. 14, Table 1) and a battery-free temperature sensor placed ten feet
// away (Fig. 15).
//
// Running a packet-level simulation for six full days of wall-clock time
// is wasteful: occupancy at 60 s resolution is statistically stationary
// within a bin. The runner therefore samples each bin with a short
// packet-level window (default one simulated second) under that bin's
// diurnally-modulated client and neighbor load, and carries the measured
// occupancy into the energy model. DESIGN.md documents this substitution.
package deploy

import (
	"math"
	"time"
)

// HomeConfig describes one deployment home (Table 1). The JSON tags
// are part of the public scenario schema (powifi.LoadScenario).
type HomeConfig struct {
	// ID is the home number: 1-6 for Table 1's homes, and a fleet
	// numbers its synthesized homes from 1.
	ID int `json:"id,omitempty"`
	// Users and Devices are the occupants and their Wi-Fi devices.
	Users   int `json:"users"`
	Devices int `json:"devices"`
	// NeighborAPs counts other 2.4 GHz routers in range.
	NeighborAPs int `json:"neighbor_aps"`
	// Weekend marks the two homes staged over a weekend.
	Weekend bool `json:"weekend,omitempty"`
	// StartHour is the local hour the 24 h log begins at (Fig. 14's
	// x-axes differ per home).
	StartHour int `json:"start_hour,omitempty"`
	// Seed drives the home's randomness.
	Seed uint64 `json:"seed,omitempty"`
}

// PaperHomes returns the six homes of Table 1. Homes 1 and 2 were staged
// over a weekend, the rest on weekdays; start hours follow Fig. 14.
func PaperHomes() []HomeConfig {
	return []HomeConfig{
		{ID: 1, Users: 2, Devices: 6, NeighborAPs: 17, Weekend: true, StartHour: 20, Seed: 101},
		{ID: 2, Users: 1, Devices: 1, NeighborAPs: 4, Weekend: true, StartHour: 16, Seed: 102},
		{ID: 3, Users: 3, Devices: 6, NeighborAPs: 10, StartHour: 16, Seed: 103},
		{ID: 4, Users: 2, Devices: 4, NeighborAPs: 15, StartHour: 20, Seed: 104},
		{ID: 5, Users: 1, Devices: 2, NeighborAPs: 24, StartHour: 0, Seed: 105},
		{ID: 6, Users: 3, Devices: 6, NeighborAPs: 16, StartHour: 20, Seed: 106},
	}
}

// Options controls the deployment runner's fidelity/cost trade-off.
type Options struct {
	// BinWidth is the occupancy logging resolution (60 s in the paper).
	BinWidth time.Duration
	// Window is the packet-level sample simulated per bin.
	Window time.Duration
	// Hours is the deployment duration (24 in the paper).
	Hours float64
	// SensorDistanceFt places the Fig. 15 sensor (10 ft in the paper).
	SensorDistanceFt float64
	// Exact forces the sensor's per-bin rectifier solve onto the direct
	// operating-point solver instead of the error-bounded interpolation
	// surface. The surface path is the default: same boot decisions,
	// harvested power within its certified ε, and a far cheaper bin.
	Exact bool
}

// DefaultOptions returns the paper's logging setup with a one-second
// sampling window per bin.
func DefaultOptions() Options {
	return Options{
		BinWidth:         time.Minute,
		Window:           time.Second,
		Hours:            24,
		SensorDistanceFt: 10,
	}
}

// withDefaults fills unset timing/placement fields individually, so
// fields with meaningful zero values (Exact, and whatever comes next)
// survive a partially specified Options.
func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.BinWidth == 0 {
		o.BinWidth = d.BinWidth
	}
	if o.Window == 0 {
		o.Window = d.Window
	}
	if o.Hours == 0 {
		o.Hours = d.Hours
	}
	if o.SensorDistanceFt == 0 {
		o.SensorDistanceFt = d.SensorDistanceFt
	}
	return o
}

// Resolved returns the options with unset fields filled from
// DefaultOptions — what a run with o actually simulates.
func (o Options) Resolved() Options { return o.withDefaults() }

// NumBins returns the number of whole logging bins the deployment
// spans — the single source of truth for every layer that needs it.
func (o Options) NumBins() int { return int(o.bins()) }

// bins is NumBins before truncation. The epsilon absorbs float rounding
// when Hours was itself derived from a bin count (the fleet layer's
// duration snapping), so a snapped duration always round-trips to the
// same bin count.
func (o Options) bins() float64 {
	return o.Hours*float64(time.Hour)/float64(o.BinWidth) + 1e-9
}

// activity returns the diurnal activity level in [0, 1] for a local hour.
// Weekday evenings peak after work; weekends spread usage through the day.
func activity(hour float64, weekend bool) float64 {
	h := math.Mod(hour, 24)
	var a float64
	switch {
	case h < 6:
		a = 0.08
	case h < 8:
		a = 0.30
	case h < 17:
		if weekend {
			a = 0.55
		} else {
			a = 0.25
		}
	case h < 19:
		a = 0.60
	case h < 23:
		a = 1.00
	default:
		a = 0.40
	}
	return a
}

// BinSample is one logging bin of a single-home run, as
// BinBatch.Sample returns it: the router's per-channel occupancy over
// the bin's packet-level sample window and the derived sensor-side
// quantities at the configured distance.
type BinSample struct {
	// Bin is the bin index, starting at 0.
	Bin int
	// HourOfDay is the bin's local time.
	HourOfDay float64
	// Occupancy holds per-channel airtime fractions in [0, 1], indexed
	// in phy.PoWiFiChannels order (1, 6, 11).
	Occupancy [3]float64
	// CumulativePct is the percentage sum across channels (may exceed 100).
	CumulativePct float64
	// SensorRate is the battery-free temperature sensor's update rate
	// (reads/s); 0 when the sensor cannot boot.
	SensorRate float64
	// NetHarvestedW is the sensor harvester's net harvested power (W)
	// under this bin's occupancy: 0 when the sensor cannot clear its
	// cold-start threshold, and possibly negative below sensitivity.
	NetHarvestedW float64
}

// BankedHarvestUW returns the harvested power this bin banks, in µW —
// the single place the silent-bin clamp convention lives: a bin whose
// sensor could not boot banks nothing, and the below-sensitivity
// negative case is clamped to zero so harvest distributions stay
// consistent with silent-bin statistics for marginal placements. The
// home fold (BinBatch.Means) and the fleet's per-bin harvest column go
// through it.
func (s BinSample) BankedHarvestUW() float64 {
	uw := s.NetHarvestedW * 1e6
	if uw < 0 || s.SensorRate <= 0 {
		return 0
	}
	return uw
}

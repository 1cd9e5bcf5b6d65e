// Package core is the PoWiFi system facade: it couples the router's
// multi-channel power transmissions (internal/router) to the harvesting
// hardware (internal/harvester) and the sensing applications
// (internal/sensors) — the co-design that is the paper's central
// contribution.
//
// The key abstraction is the PowerLink: the time-averaged RF power a
// device receives on each Wi-Fi channel, determined by the router's
// transmit power, the per-channel occupancy its injectors achieve, the
// distance, and any wall in between. Because the harvester cannot tell
// power packets from client traffic or beacons (§3), occupancy fractions
// are all it takes to turn a protocol-level simulation into incident
// power.
package core

import (
	"time"

	"repro/internal/harvester"
	"repro/internal/phy"
	"repro/internal/rf"
	"repro/internal/sensors"
	"repro/internal/surface"
	"repro/internal/units"
)

// PowerLink describes the RF power delivery path from a PoWiFi router to
// one harvesting device.
type PowerLink struct {
	// TxPowerDBm is the router's per-chain transmit power (30 dBm).
	TxPowerDBm float64
	// TxGainDBi is the router's antenna gain (6 dBi).
	TxGainDBi float64
	// RxGainDBi is the harvester's antenna gain (2 dBi, §2).
	RxGainDBi float64
	// DistanceFt separates router and device, in feet.
	DistanceFt float64
	// Wall, if any, sits between them (Fig. 13).
	Wall rf.WallMaterial
	// Occupancy holds the fraction of airtime the router's transmissions
	// occupy on each PoWiFi channel, indexed in phy.PoWiFiChannels order
	// (1, 6, 11). The fixed array keeps the per-bin hot path free of map
	// traffic; OccupancyFromMap adapts map-shaped callers.
	Occupancy [3]float64
}

// OccupancyFromMap converts a per-channel occupancy map to the fixed
// array PowerLink carries, ignoring channels outside the PoWiFi set.
func OccupancyFromMap(m map[phy.Channel]float64) [3]float64 {
	var occ [3]float64
	//powifi:mapiter-ok each channel key writes its own fixed slot; iteration order cannot matter
	for chNum, v := range m {
		if i := phy.PoWiFiChannelIndex(chNum); i >= 0 {
			occ[i] = v
		}
	}
	return occ
}

// PoWiFiLink returns the standard benchmark link: the prototype router
// (30 dBm, 6 dBi) at the given distance with the given cumulative
// occupancy spread evenly over channels 1, 6 and 11.
func PoWiFiLink(distanceFt, cumulativeOccupancy float64) PowerLink {
	per := cumulativeOccupancy / 3
	return PoWiFiLinkOccupancy(distanceFt, [3]float64{per, per, per})
}

// PoWiFiLinkOccupancy is PoWiFiLink with explicit per-channel
// occupancies (phy.PoWiFiChannels order) — the single source of the
// prototype link budget (30 dBm router, 6 dBi transmit, 2 dBi harvest
// antenna) for callers that carry measured occupancy vectors, like the
// deployment sampler and the lifecycle engine.
func PoWiFiLinkOccupancy(distanceFt float64, occupancy [3]float64) PowerLink {
	return PowerLink{
		TxPowerDBm: 30,
		TxGainDBi:  6,
		RxGainDBi:  2,
		DistanceFt: distanceFt,
		Occupancy:  occupancy,
	}
}

// FullChannelPowers returns the full (packet-burst) incident power per
// channel at the device, paired with the per-channel occupancy fractions.
func (l PowerLink) FullChannelPowers() (chans []harvester.ChannelPower, occ []float64) {
	return l.appendOccupied(nil, nil, l.channelPowersW())
}

// channelPowersW returns the full received power on each PoWiFi channel
// (phy.PoWiFiChannels order): the link budget, which does not depend on
// occupancy.
func (l PowerLink) channelPowersW() [3]float64 {
	link := rf.Link{
		TxPowerDBm: l.TxPowerDBm,
		TxAntenna:  rf.Antenna{GainDBi: l.TxGainDBi},
		RxAntenna:  rf.Antenna{GainDBi: l.RxGainDBi},
		DistanceM:  units.FeetToMeters(l.DistanceFt),
		Wall:       l.Wall,
	}
	var p [3]float64
	for i, chNum := range phy.PoWiFiChannels {
		p[i] = link.ReceivedPowerW(chNum.FreqHz())
	}
	return p
}

// appendOccupied appends the occupied channels' burst powers, taken from
// powerW, and occupancy fractions to the given buffers. Hot paths pass
// per-device scratch slices so the per-bin evaluation allocates nothing.
func (l PowerLink) appendOccupied(chans []harvester.ChannelPower, occ []float64, powerW [3]float64) ([]harvester.ChannelPower, []float64) {
	for i, o := range l.Occupancy {
		if o <= 0 {
			continue
		}
		if o > 1 {
			o = 1 // a single channel cannot be more than fully occupied
		}
		chans = append(chans, harvester.ChannelPower{
			FreqHz: phy.PoWiFiChannels[i].FreqHz(),
			PowerW: powerW[i],
		})
		occ = append(occ, o)
	}
	return chans, occ
}

// ChannelPowers returns the time-averaged incident power per channel at
// the device.
func (l PowerLink) ChannelPowers() []harvester.ChannelPower {
	chans, occ := l.FullChannelPowers()
	for i := range chans {
		chans[i].PowerW *= occ[i]
	}
	return chans
}

// TotalIncidentW returns the summed time-averaged incident power.
func (l PowerLink) TotalIncidentW() float64 {
	total := 0.0
	for _, cp := range l.ChannelPowers() {
		total += cp.PowerW
	}
	return total
}

// SurfaceSink observes operating-point surface queries: one call per
// query, with the logging bin it was made for (-1 outside a binned run)
// and how the surface answered it. Observation is strictly out of band:
// it never changes which solver runs or what it returns. The fleet's
// per-home handle (*trace.HomeTrace) and a bare counter group
// (*telemetry.SurfaceCounters) both satisfy it, and both are no-ops on
// a nil pointer.
type SurfaceSink interface {
	SurfaceOutcome(bin int, out surface.Outcome)
}

// chain is a device's harvesting chain and the two questions every bin
// asks of it: does the chain clear its cold start, and what does it
// harvest. Both devices embed it, so they share one query path.
type chain struct {
	Harvester *harvester.Harvester
	// Exact forces the direct operating-point solver, bypassing the
	// shared interpolation surface (internal/surface). The surface
	// certifies a relative error ≤ 1e-6 against the exact solver and
	// makes identical boot decisions, so Exact matters only when
	// validating the surface itself (the SDK exposes it per run as
	// WithExact).
	Exact bool
	// Tele, when set, observes each surface query's outcome (grid hit,
	// exact fallback, guard-band trigger). Queries made on the direct
	// solver (Exact) are not surface queries and are not observed.
	Tele SurfaceSink

	surf *surface.Surface // memoized by surface
	exp  linkExpander
}

// surface returns the harvester's shared surface, memoized so the
// per-bin hot path never re-derives the registry key.
func (c *chain) surface() *surface.Surface {
	if c.surf == nil {
		c.surf = surface.For(c.Harvester)
	}
	return c.surf
}

// report passes one surface query's outcome, made for bin, to Tele.
func (c *chain) report(bin int, out surface.Outcome) {
	if c.Tele != nil {
		c.Tele.SurfaceOutcome(bin, out)
	}
}

// boots reports whether the chain clears its cold start under bursty
// drive.
func (c *chain) boots(bin int, chans []harvester.ChannelPower, occ []float64) bool {
	if c.Exact {
		return c.Harvester.CanBootBursty(chans, occ)
	}
	ok, out := c.surface().CanBootBursty(chans, occ)
	c.report(bin, out)
	return ok
}

// harvest returns the chain's harvested power under bursty drive.
func (c *chain) harvest(bin int, chans []harvester.ChannelPower, occ []float64) float64 {
	if c.Exact {
		return c.Harvester.BurstyOperating(chans, occ).HarvestedW
	}
	op, out := c.surface().BurstyOperating(chans, occ)
	c.report(bin, out)
	return op.HarvestedW
}

// linkExpander is the per-device scratch + memo for materializing a
// PowerLink's occupied channels without allocating: reusable channel/
// occupancy buffers, and a link-budget memo keyed on the link geometry.
// The deployment hot path evaluates the same geometry (power, gains,
// distance, wall) bin after bin with only the occupancy changing, and
// the RF budget is independent of occupancy — linkKey is the last
// geometry (occupancy zeroed); chPowerW the full per-channel received
// power it produces. Shared by the temperature-sensor and camera
// devices (and through them by the lifecycle engine's per-bin chain
// evaluations).
type linkExpander struct {
	chansBuf []harvester.ChannelPower
	occBuf   []float64

	linkKey   PowerLink
	linkValid bool
	chPowerW  [3]float64
}

// expand materializes the link's occupied channels into the expander's
// scratch buffers, so per-bin evaluation neither allocates nor re-solves
// the occupancy-independent RF budget when the geometry is unchanged.
func (e *linkExpander) expand(link PowerLink) ([]harvester.ChannelPower, []float64) {
	key := link
	key.Occupancy = [3]float64{}
	if !e.linkValid || key != e.linkKey {
		e.chPowerW = link.channelPowersW()
		e.linkKey = key
		e.linkValid = true
	}
	e.chansBuf, e.occBuf = link.appendOccupied(e.chansBuf[:0], e.occBuf[:0], e.chPowerW)
	return e.chansBuf, e.occBuf
}

// TempSensorDevice is a complete Wi-Fi-powered temperature sensor (§5.1).
// Devices are cheap to construct and not safe for concurrent use; give
// each goroutine its own (the expensive state — the operating-point
// surface — is shared process-wide behind them).
type TempSensorDevice struct {
	chain
	Sensor *sensors.TemperatureSensor
	// Battery is the storage for the recharging version (nil for
	// battery-free).
	Battery *harvester.Battery
}

// NewBatteryFreeTempSensor returns the §5.1 battery-free prototype.
func NewBatteryFreeTempSensor() *TempSensorDevice {
	return &TempSensorDevice{
		chain:  chain{Harvester: harvester.NewBatteryFree()},
		Sensor: sensors.NewTemperatureSensor(),
	}
}

// NewRechargingTempSensor returns the §5.1 battery-recharging prototype
// with its 2×AAA NiMH pack.
func NewRechargingTempSensor() *TempSensorDevice {
	return &TempSensorDevice{
		chain:   chain{Harvester: harvester.NewBatteryCharging()},
		Sensor:  sensors.NewTemperatureSensor(),
		Battery: harvester.NewNiMHPack(),
	}
}

// NetHarvestedW returns the device's net harvested power over the link,
// evaluated under bursty packet drive. It uses the same solver selection
// as Evaluate, so the two methods agree on any device.
func (d *TempSensorDevice) NetHarvestedW(link PowerLink) float64 {
	chans, occ := d.exp.expand(link)
	return d.harvest(-1, chans, occ)
}

// UpdateRate returns the sensor's energy-neutral update rate over the
// link (Fig. 11's y-axis). Battery-free devices additionally require the
// harvester to clear its cold-start threshold.
func (d *TempSensorDevice) UpdateRate(link PowerLink) float64 {
	rate, _ := d.Evaluate(-1, link)
	return rate
}

// Evaluate returns the sensor's update rate and net harvested power
// over the link from a single operating-point solve. The rectifier
// solve dominates per-bin cost in deployment and fleet runs, so the
// hot path must not pay for it twice — and a device that cannot clear
// cold-start banks nothing, so the cheap boot check short-circuits the
// solve entirely with (0, 0).
//
// By default the solve is served from the shared error-bounded
// interpolation surface (internal/surface): identical boot decisions,
// harvested power within the surface's certified ε of the exact solver,
// and a per-bin cost of a table lookup instead of a Bessel/Newton solve.
// Set Exact to force the direct path.
// bin is the logging bin the query is made for, reported to Tele (-1
// outside a binned run).
func (d *TempSensorDevice) Evaluate(bin int, link PowerLink) (rateHz, netW float64) {
	chans, occ := d.exp.expand(link)
	if !d.boots(bin, chans, occ) {
		return 0, 0
	}
	netW = d.harvest(bin, chans, occ)
	return d.Sensor.UpdateRate(netW), netW
}

// EvaluateBatch evaluates the sensor over a contiguous batch of
// occupancy vectors sharing one link geometry — the struct-of-arrays
// form of the fleet hot path. It is a loop over Evaluate: element i is
// Evaluate(i, PoWiFiLinkOccupancy(distanceFt, occupancy[i])), outcomes
// reported to Tele attributed to bin i, and the occupancy-independent
// RF budget (linkExpander's memo) is solved once for the whole batch.
// rateHz and netW must be at least len(occupancy) long.
func (d *TempSensorDevice) EvaluateBatch(distanceFt float64, occupancy [][3]float64, rateHz, netW []float64) {
	for i := range occupancy {
		rateHz[i], netW[i] = d.Evaluate(i, PoWiFiLinkOccupancy(distanceFt, occupancy[i]))
	}
}

// CameraDevice is a complete Wi-Fi-powered camera (§5.2). Both camera
// versions use the TI bq25570 chain; the battery-free version stores into
// the AVX supercapacitor, the recharging version into a Li-Ion coin cell.
type CameraDevice struct {
	chain
	Camera *sensors.Camera
	// StandbyW is the device's standing drain while banking energy:
	// converter quiescent plus storage leakage. Calibrated so the
	// battery-free camera reaches 17 ft and the recharging camera 23 ft
	// (Fig. 12).
	StandbyW float64
	// Battery is set for the recharging version.
	Battery *harvester.Battery
}

// NewBatteryFreeCamera returns the §5.2 battery-free prototype
// (supercapacitor storage).
func NewBatteryFreeCamera() *CameraDevice {
	return &CameraDevice{
		chain:    chain{Harvester: harvester.NewBatteryCharging()}, // bq25570 chain
		Camera:   sensors.NewCamera(),
		StandbyW: 2.2e-6, // buck standby + supercap leakage
	}
}

// NewRechargingCamera returns the §5.2 battery-recharging prototype with
// its 1 mAh Li-Ion coin cell.
func NewRechargingCamera() *CameraDevice {
	return &CameraDevice{
		chain:    chain{Harvester: harvester.NewBatteryCharging()},
		Camera:   sensors.NewCamera(),
		StandbyW: 0.4e-6, // the battery absorbs charge with less overhead
		Battery:  harvester.NewLiIonCoinCell(),
	}
}

// NetHarvestedW returns net banked power over the link, after standby
// drain, evaluated under bursty packet drive. It shares the pooled link
// expander with Evaluate, so sweeping occupancy over a fixed geometry
// (the lifecycle engine's per-bin pattern) allocates nothing.
func (d *CameraDevice) NetHarvestedW(link PowerLink) float64 {
	return d.Evaluate(-1, link)
}

// Evaluate returns the camera's net banked power over the link from a
// single operating-point solve: the bursty harvest of the bq25570
// chain minus the standby drain. Like TempSensorDevice.Evaluate it is
// served from the shared error-bounded surface unless Exact is set,
// and the link expansion reuses per-device scratch so the per-bin hot
// path is allocation-free in steady state. bin is reported to Tele as
// on TempSensorDevice.Evaluate.
func (d *CameraDevice) Evaluate(bin int, link PowerLink) (netW float64) {
	chans, occ := d.exp.expand(link)
	return d.harvest(bin, chans, occ) - d.StandbyW
}

// InterFrameTime returns the time between captures over the link, or +Inf
// out of range (Fig. 12/13's y-axis).
func (d *CameraDevice) InterFrameTime(link PowerLink) time.Duration {
	return d.Camera.InterFrameTime(d.NetHarvestedW(link))
}

// OperatingRangeFt returns the maximum distance (feet) at which the given
// predicate holds, on a grid of 0.25 ft steps from 0.5 ft out to maxFt —
// how the paper reports sensor ranges. The predicate is assumed to hold
// on one band of steps (for a device, from the nearest step out to its
// range): the search scans out to the first step that holds, gallops
// outward while it holds and bisects the last gap, so a range costs
// about a dozen predicate calls rather than one per step. The result is
// the band's far edge.
func OperatingRangeFt(maxFt float64, operates func(distanceFt float64) bool) float64 {
	// Step k is at 0.5 + 0.25k ft, the float repeated 0.25 ft additions
	// make: every step is a multiple of 0.25, so both are exact.
	step := func(k int) float64 { return 0.5 + 0.25*float64(k) }
	holds := func(k int) bool { return step(k) <= maxFt && operates(step(k)) }
	lo := 0
	for ; !holds(lo); lo++ {
		if step(lo) > maxFt {
			return 0
		}
	}
	stride := 1
	for holds(lo + stride) {
		lo += stride
		stride *= 2
	}
	for hi := lo + stride; hi-lo > 1; {
		if mid := lo + (hi-lo)/2; holds(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return step(lo)
}

// BatteryChargeTime returns the time to bring a battery from fromSoC to
// toSoC at the given net charging power, or +Inf if netW <= 0. It is a
// thin wrapper over harvester.Battery.ConstantPowerChargeTime — the
// same ledger primitive the stateful lifecycle engine
// (internal/lifecycle) integrates per bin — so the constant-power
// shortcut and the engine cannot diverge.
func BatteryChargeTime(b *harvester.Battery, fromSoC, toSoC, netW float64) time.Duration {
	return b.ConstantPowerChargeTime(fromSoC, toSoC, netW)
}

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
	"reflect"
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
	// PathLoss selects the propagation model (free space by default).
	PathLoss rf.PathLossModel
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

// OccupancyMap returns the link's per-channel occupancy as a map, the
// inverse adapter of OccupancyFromMap for map-shaped consumers.
func (l PowerLink) OccupancyMap() map[phy.Channel]float64 {
	m := make(map[phy.Channel]float64, len(l.Occupancy))
	for i, v := range l.Occupancy {
		m[phy.PoWiFiChannels[i]] = v
	}
	return m
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
	return l.appendChannelPowers(nil, nil)
}

// appendChannelPowers appends the occupied channels' burst powers and
// occupancy fractions to the given buffers. Hot paths pass per-device
// scratch slices so the per-bin evaluation allocates nothing.
func (l PowerLink) appendChannelPowers(chans []harvester.ChannelPower, occ []float64) ([]harvester.ChannelPower, []float64) {
	for i, o := range l.Occupancy {
		if o <= 0 {
			continue
		}
		if o > 1 {
			o = 1 // a single channel cannot be more than fully occupied
		}
		chNum := phy.PoWiFiChannels[i]
		link := rf.Link{
			TxPowerDBm: l.TxPowerDBm,
			TxAntenna:  rf.Antenna{GainDBi: l.TxGainDBi},
			RxAntenna:  rf.Antenna{GainDBi: l.RxGainDBi},
			DistanceM:  units.FeetToMeters(l.DistanceFt),
			Wall:       l.Wall,
			Model:      l.PathLoss,
		}
		chans = append(chans, harvester.ChannelPower{
			FreqHz: chNum.FreqHz(),
			PowerW: link.ReceivedPowerW(chNum.FreqHz()),
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

// operatingSolver is the bursty operating-point solve shared by the
// exact path (*harvester.Harvester) and the interpolated path
// (*surface.Surface); both satisfy it by construction.
type operatingSolver interface {
	CanBootBursty(chans []harvester.ChannelPower, occupancy []float64) bool
	BurstyOperating(chans []harvester.ChannelPower, occupancy []float64) harvester.Operating
}

// solverFor returns the operating-point solver for h: the shared
// error-bounded surface unless exact (or the global escape hatch)
// forces the direct path. The surface pointer is memoized through cache
// so the per-bin hot path never re-derives the registry key.
func solverFor(h *harvester.Harvester, exact bool, cache **surface.Surface) operatingSolver {
	if exact || !surface.Enabled() {
		return h
	}
	if *cache == nil {
		*cache = surface.For(h)
	}
	return *cache
}

// SurfaceSink observes operating-point surface queries: one call per
// query, with the logging bin it was made for (-1 outside a binned run)
// and how the surface answered it. Observation is strictly out of band:
// it never changes which solver runs or what it returns. The fleet's
// per-home handle (*trace.HomeTrace) and a bare counter group
// (*telemetry.SurfaceCounters) both satisfy it. Leave a device's sink
// as a nil interface when nothing observes: any non-nil value, even a
// nil pointer, routes queries through the outcome-reporting path.
type SurfaceSink interface {
	SurfaceOutcome(bin int, out surface.Outcome)
}

// linkExpander is the per-device scratch + memo for materializing a
// PowerLink's occupied channels without allocating: reusable channel/
// occupancy buffers, and a link-budget memo keyed on the link geometry.
// The deployment hot path evaluates the same geometry (power, gains,
// distance, wall, model) bin after bin with only the occupancy
// changing, and the RF budget is independent of occupancy — linkKey is
// the last geometry (occupancy zeroed); chPowerW the full per-channel
// received power it produces. Path loss models must be comparable
// values for the key to work — both in-tree models are. Shared by the
// temperature-sensor and camera devices (and through them by the
// lifecycle engine's per-bin chain evaluations).
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
// Links whose path-loss model is a non-comparable type skip the memo (a
// cache miss, never a panic).
func (e *linkExpander) expand(link PowerLink) ([]harvester.ChannelPower, []float64) {
	if link.PathLoss != nil && !reflect.TypeOf(link.PathLoss).Comparable() {
		e.chansBuf, e.occBuf = link.appendChannelPowers(e.chansBuf[:0], e.occBuf[:0])
		return e.chansBuf, e.occBuf
	}
	key := link
	key.Occupancy = [3]float64{}
	if !e.linkValid || key != e.linkKey {
		for i, chNum := range phy.PoWiFiChannels {
			rfl := rf.Link{
				TxPowerDBm: link.TxPowerDBm,
				TxAntenna:  rf.Antenna{GainDBi: link.TxGainDBi},
				RxAntenna:  rf.Antenna{GainDBi: link.RxGainDBi},
				DistanceM:  units.FeetToMeters(link.DistanceFt),
				Wall:       link.Wall,
				Model:      link.PathLoss,
			}
			e.chPowerW[i] = rfl.ReceivedPowerW(chNum.FreqHz())
		}
		e.linkKey = key
		e.linkValid = true
	}
	chans, occ := e.chansBuf[:0], e.occBuf[:0]
	for i, o := range link.Occupancy {
		if o <= 0 {
			continue
		}
		if o > 1 {
			o = 1 // a single channel cannot be more than fully occupied
		}
		chans = append(chans, harvester.ChannelPower{
			FreqHz: phy.PoWiFiChannels[i].FreqHz(),
			PowerW: e.chPowerW[i],
		})
		occ = append(occ, o)
	}
	e.chansBuf, e.occBuf = chans, occ
	return chans, occ
}

// TempSensorDevice is a complete Wi-Fi-powered temperature sensor (§5.1).
// Devices are cheap to construct and not safe for concurrent use; give
// each goroutine its own (the expensive state — the operating-point
// surface — is shared process-wide behind them).
type TempSensorDevice struct {
	Harvester *harvester.Harvester
	Sensor    *sensors.TemperatureSensor
	// Battery is the storage for the recharging version (nil for
	// battery-free).
	Battery *harvester.Battery
	// Exact forces the energy methods onto the direct operating-point
	// solver, bypassing the shared interpolation surface
	// (internal/surface). The surface certifies a relative error ≤ 1e-6
	// against the exact solver and makes identical boot decisions, so
	// Exact matters only when validating the surface itself (the CLIs
	// expose it as -exact).
	Exact bool
	// Tele, when set, observes each surface query's outcome (grid hit,
	// exact fallback, guard-band trigger). Queries made on the direct
	// solver (Exact, or the surface globally disabled) are not surface
	// queries and are not observed.
	Tele SurfaceSink

	surf *surface.Surface // memoized by solverFor
	exp  linkExpander
}

// NewBatteryFreeTempSensor returns the §5.1 battery-free prototype.
func NewBatteryFreeTempSensor() *TempSensorDevice {
	return &TempSensorDevice{
		Harvester: harvester.NewBatteryFree(),
		Sensor:    sensors.NewTemperatureSensor(),
	}
}

// NewRechargingTempSensor returns the §5.1 battery-recharging prototype
// with its 2×AAA NiMH pack.
func NewRechargingTempSensor() *TempSensorDevice {
	return &TempSensorDevice{
		Harvester: harvester.NewBatteryCharging(),
		Sensor:    sensors.NewTemperatureSensor(),
		Battery:   harvester.NewNiMHPack(),
	}
}

// NetHarvestedW returns the device's net harvested power over the link,
// evaluated under bursty packet drive. It uses the same solver selection
// as Evaluate, so the two methods agree on any device.
func (d *TempSensorDevice) NetHarvestedW(link PowerLink) float64 {
	chans, occ := d.exp.expand(link)
	s := solverFor(d.Harvester, d.Exact, &d.surf)
	if surf, ok := s.(*surface.Surface); ok && d.Tele != nil {
		op, out := surf.BurstyOperatingOutcome(chans, occ)
		d.Tele.SurfaceOutcome(-1, out)
		return op.HarvestedW
	}
	return s.BurstyOperating(chans, occ).HarvestedW
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
// Set Exact (or disable the surface globally) to force the direct path.
// bin is the logging bin the query is made for, reported to Tele (-1
// outside a binned run).
func (d *TempSensorDevice) Evaluate(bin int, link PowerLink) (rateHz, netW float64) {
	chans, occ := d.exp.expand(link)
	s := solverFor(d.Harvester, d.Exact, &d.surf)
	if surf, ok := s.(*surface.Surface); ok && d.Tele != nil {
		boots, out := surf.CanBootBurstyOutcome(chans, occ)
		d.Tele.SurfaceOutcome(bin, out)
		if !boots {
			return 0, 0
		}
		op, out := surf.BurstyOperatingOutcome(chans, occ)
		d.Tele.SurfaceOutcome(bin, out)
		netW = op.HarvestedW
		return d.Sensor.UpdateRate(netW), netW
	}
	if !s.CanBootBursty(chans, occ) {
		return 0, 0
	}
	netW = s.BurstyOperating(chans, occ).HarvestedW
	return d.Sensor.UpdateRate(netW), netW
}

// EvaluateBatch evaluates the sensor over a contiguous batch of
// occupancy vectors sharing one link geometry — the struct-of-arrays
// form of the fleet hot path. Solver selection, the surface handle and
// the occupancy-independent RF budget (linkExpander's memo) are resolved
// once per batch instead of once per bin, and the surface is driven
// through a single lookup loop (EvaluateOutcome). Element i is
// bit-identical to Evaluate(i, PoWiFiLinkOccupancy(distanceFt, occupancy[i]))
// — the batched-vs-streamed parity suite pins this — and Tele sees
// exactly the outcomes Evaluate would report, attributed to bin i.
// rateHz and netW must be at least len(occupancy) long.
func (d *TempSensorDevice) EvaluateBatch(distanceFt float64, occupancy [][3]float64, rateHz, netW []float64) {
	s := solverFor(d.Harvester, d.Exact, &d.surf)
	surf, isSurf := s.(*surface.Surface)
	for i := range occupancy {
		chans, occ := d.exp.expand(PoWiFiLinkOccupancy(distanceFt, occupancy[i]))
		if isSurf && d.Tele != nil {
			w, boots, bootOut, opOut, opQueried := surf.EvaluateOutcome(chans, occ)
			d.Tele.SurfaceOutcome(i, bootOut)
			if opQueried {
				d.Tele.SurfaceOutcome(i, opOut)
			}
			if !boots {
				rateHz[i], netW[i] = 0, 0
				continue
			}
			netW[i] = w
			rateHz[i] = d.Sensor.UpdateRate(w)
			continue
		}
		if !s.CanBootBursty(chans, occ) {
			rateHz[i], netW[i] = 0, 0
			continue
		}
		w := s.BurstyOperating(chans, occ).HarvestedW
		netW[i] = w
		rateHz[i] = d.Sensor.UpdateRate(w)
	}
}

// CameraDevice is a complete Wi-Fi-powered camera (§5.2). Both camera
// versions use the TI bq25570 chain; the battery-free version stores into
// the AVX supercapacitor, the recharging version into a Li-Ion coin cell.
type CameraDevice struct {
	Harvester *harvester.Harvester
	Camera    *sensors.Camera
	// StandbyW is the device's standing drain while banking energy:
	// converter quiescent plus storage leakage. Calibrated so the
	// battery-free camera reaches 17 ft and the recharging camera 23 ft
	// (Fig. 12).
	StandbyW float64
	// Battery is set for the recharging version.
	Battery *harvester.Battery
	// Exact forces the direct operating-point solver, as on
	// TempSensorDevice.
	Exact bool
	// Tele observes surface query outcomes, as on TempSensorDevice.
	Tele SurfaceSink

	surf *surface.Surface // memoized by solverFor
	exp  linkExpander
}

// NewBatteryFreeCamera returns the §5.2 battery-free prototype
// (supercapacitor storage).
func NewBatteryFreeCamera() *CameraDevice {
	return &CameraDevice{
		Harvester: harvester.NewBatteryCharging(), // bq25570 chain
		Camera:    sensors.NewCamera(),
		StandbyW:  2.2e-6, // buck standby + supercap leakage
	}
}

// NewRechargingCamera returns the §5.2 battery-recharging prototype with
// its 1 mAh Li-Ion coin cell.
func NewRechargingCamera() *CameraDevice {
	return &CameraDevice{
		Harvester: harvester.NewBatteryCharging(),
		Camera:    sensors.NewCamera(),
		StandbyW:  0.4e-6, // the battery absorbs charge with less overhead
		Battery:   harvester.NewLiIonCoinCell(),
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
	s := solverFor(d.Harvester, d.Exact, &d.surf)
	if surf, ok := s.(*surface.Surface); ok && d.Tele != nil {
		op, out := surf.BurstyOperatingOutcome(chans, occ)
		d.Tele.SurfaceOutcome(bin, out)
		return op.HarvestedW - d.StandbyW
	}
	return s.BurstyOperating(chans, occ).HarvestedW - d.StandbyW
}

// InterFrameTime returns the time between captures over the link, or +Inf
// out of range (Fig. 12/13's y-axis).
func (d *CameraDevice) InterFrameTime(link PowerLink) time.Duration {
	return d.Camera.InterFrameTime(d.NetHarvestedW(link))
}

// OperatingRangeFt returns the maximum distance (feet) at which the given
// predicate holds, searching outward in 0.25 ft steps — how the paper
// reports sensor ranges.
func OperatingRangeFt(maxFt float64, operates func(distanceFt float64) bool) float64 {
	lastGood := 0.0
	for d := 0.5; d <= maxFt; d += 0.25 {
		if operates(d) {
			lastGood = d
		}
	}
	return lastGood
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

package lifecycle

import (
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/harvester"
	"repro/internal/sensors"
	"repro/internal/trace"
)

// Engine constants. The storage-capacitor sizing matches the §5.1
// transient simulation (one 2.4 V → 1.9 V discharge window holds
// exactly one 2.77 µJ read); the dark-decay time constant models the
// small storage node bleeding out through leakage within a fraction of
// a logging bin once the chain goes dark, which is what forces a full
// cold start after every RF outage (the Fig. 1 story at bin
// resolution). The Jawbone constants are the §8(a) calibration from
// the Fig. 16 runner: the USB charger sits 6 cm from the router and
// converts incident RF to battery charge at a fixed high-power chain
// efficiency.
const (
	tempStoreC    = 2.6e-6
	darkDecayTauS = 30.0
	jawboneEff    = 0.055
	jawboneDistFt = 6.0 / 30.48
)

// State is the device's position in the boot/brownout/operate machine.
type State int

const (
	// StateBoot: cold start — the device has made no progress since
	// Begin (or since recovering storage was drained) and is working
	// toward its boot threshold.
	StateBoot State = iota
	// StateOperate: the device made progress last bin (updates, frames,
	// or net charge).
	StateOperate
	// StateBrownout: the device operated and then lost the energy to
	// continue; it must clear its boot threshold again.
	StateBrownout
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateBoot:
		return "boot"
	case StateOperate:
		return "operate"
	case StateBrownout:
		return "brownout"
	}
	return "invalid"
}

// Policy is the configurable duty-cycle policy a device runs.
type Policy struct {
	// UpdateEvery is the target interval between updates for the
	// duty-cycled archetypes: the recharging temperature sensor spends
	// one read energy per interval, and a positive value caps the
	// camera's frame rate. Zero selects the archetype default
	// (60 s reads for the recharging sensor; uncapped, energy-limited
	// frames for the camera). The battery-free sensor is always
	// energy-neutral — harvest sets its rate — and ignores this field.
	UpdateEvery time.Duration
	// InitialSoC is the battery's state of charge at Begin, in (0, 1].
	// Non-positive selects the archetype default (5% for the recharging
	// sensor's mostly drained pack; empty for the camera cell and the
	// chargers — for which the default already is empty). Ignored by
	// the battery-free sensor.
	InitialSoC float64
	// FullSoC is the state of charge at which a charger counts as fully
	// charged (time-to-full metric). Zero selects the default 0.99.
	FullSoC float64
}

// withDefaults resolves the archetype's default policy.
func (p Policy) withDefaults(k Kind) Policy {
	if p.UpdateEvery == 0 && k == RechargingTemp {
		p.UpdateEvery = time.Minute
	}
	if p.InitialSoC <= 0 {
		if k == RechargingTemp {
			p.InitialSoC = 0.05
		} else {
			p.InitialSoC = 0
		}
	}
	if p.FullSoC == 0 {
		p.FullSoC = 0.99
	}
	return p
}

// DefaultPolicy returns the archetype's default duty-cycle policy.
func DefaultPolicy(k Kind) Policy {
	return Policy{}.withDefaults(k)
}

// Metrics is one home run's time-domain summary.
type Metrics struct {
	Kind Kind
	// Bins and TotalS count the logging bins visited and the simulated
	// seconds they span.
	Bins   int
	TotalS float64
	// OperatingS is the time the device spent operating (time-weighted;
	// a bin that boots midway contributes its post-boot remainder).
	OperatingS float64
	// OutageBins counts bins with no progress — the integer form the
	// fleet pools exactly across workers.
	OutageBins int
	// Updates counts sensor reads (fractional: rates integrate over
	// partial bins); Frames counts whole camera captures.
	Updates float64
	Frames  int
	// FirstUpdateS is the time of the first update/frame since Begin
	// (+Inf if none) — the paper's time-to-first-update.
	FirstUpdateS float64
	// TimeToFullS is when a charger first reached the policy's FullSoC
	// (+Inf if never, and for non-chargers that never fill).
	TimeToFullS float64
	// FinalSoC and MinSoC track the battery's state-of-charge
	// trajectory endpoints (NaN for the battery-free sensor).
	FinalSoC, MinSoC float64
}

// OutageFraction returns the time-weighted fraction of the run the
// device was not operating.
func (m Metrics) OutageFraction() float64 {
	if m.TotalS <= 0 {
		return 0
	}
	return 1 - m.OperatingS/m.TotalS
}

// BinStats is the per-bin lifecycle observation streamed to OnBin:
// what the fleet layer folds into its pooled (exactly mergeable)
// aggregates while discarding the trace.
type BinStats struct {
	Bin int
	// Updates made this bin (reads or frames); IntervalS is their mean
	// spacing (0 when none).
	Updates   float64
	IntervalS float64
	// SoCPct is the battery state of charge at bin end in percent (NaN
	// for the battery-free sensor).
	SoCPct float64
	// HarvestW is the archetype chain's net power this bin (negative
	// when quiescent drain exceeds harvest).
	HarvestW float64
	// Outage marks a bin with no progress.
	Outage bool
}

// Device is one stateful Wi-Fi-powered device: an archetype's RF chain
// plus storage, stepped across the logging bins of a home deployment.
// Drive it over a home's finished deploy.BinBatch with VisitBatch (or
// bin by bin with VisitBin) between Begin and Metrics. A Device
// is not safe for concurrent use, and like the deploy sampler it is
// pooled: Begin re-derives all run state, so reuse across homes is
// bit-for-bit invisible.
type Device struct {
	Kind   Kind
	Policy Policy
	// Exact forces the chain evaluations onto the direct operating-point
	// solver (see core.TempSensorDevice.Exact). Set before Begin.
	Exact bool
	// OnBin, if non-nil, receives one BinStats per bin.
	OnBin func(BinStats)
	// Trace, when set, is the current home's observation handle: it
	// records boot/brownout transitions and, through the archetype
	// chains, their surface-query outcomes. Strictly out of band; set
	// before Begin (Begin propagates it onto the chains).
	Trace *trace.HomeTrace

	// Archetype chains. temp is the §5.1 battery-free chain used only
	// to size the storage windows; chain is the bq25570 front end the
	// battery-backed archetypes evaluate per bin; cam adds the camera's
	// standby drain.
	chain   *core.TempSensorDevice
	cam     *core.CameraDevice
	battery *harvester.Battery

	readE    float64 // one sensor read (2.77 µJ)
	frameE   float64 // one camera frame (10.4 mJ)
	releaseE float64 // storage-cap energy at the Seiko 2.4 V release
	// rebootE is the restart hysteresis threshold: a browned-out MCU
	// stays down until the battery banks ~100 reads' worth, so a home
	// hovering at the brownout edge doesn't flap every bin (the
	// battery-backed analogue of the Seiko's 300 mV-arm / 2.4 V-release
	// window; a gate, not an energy deduction).
	rebootE float64

	jawboneFullW [3]float64 // full per-channel received power at 6 cm

	// Run state, re-derived by Begin.
	distFt      float64
	dtS         float64
	state       State
	capE        float64 // battery-free storage-cap energy
	frameCredit float64 // duty-cycle frame budget carried across bins
	m           Metrics
}

// NewDevice builds a pooled device of the given archetype. The zero
// Policy selects the archetype defaults (see DefaultPolicy).
func NewDevice(k Kind, pol Policy) *Device {
	d := &Device{Kind: k, Policy: pol.withDefaults(k)}
	sensor := sensors.NewTemperatureSensor()
	d.readE = sensor.ReadEnergyJ
	seiko := harvester.NewSeikoS882Z()
	d.releaseE = 0.5 * tempStoreC * seiko.ReleaseV * seiko.ReleaseV
	d.rebootE = 100 * d.readE // restart hysteresis: ~100 reads banked before leaving brownout

	switch k {
	case TempSensor:
		// The deployment runner already evaluates the battery-free
		// chain per bin (BinSample.SensorRate/NetHarvestedW); the
		// device only threads the storage capacitor across bins.
	case RechargingTemp:
		d.chain = core.NewRechargingTempSensor()
		d.battery = d.chain.Battery
	case Camera:
		cam := core.NewRechargingCamera()
		d.cam = cam
		d.battery = cam.Battery
		d.frameE = cam.Camera.FrameEnergyJ
	case Jawbone:
		d.battery = harvester.NewJawboneUP24Battery()
		link := core.PoWiFiLink(jawboneDistFt, 3) // occupancy 1 per channel
		chans, _ := link.FullChannelPowers()
		for i := range chans {
			d.jawboneFullW[i] = chans[i].PowerW
		}
	case LiIon:
		d.chain = core.NewRechargingTempSensor()
		d.chain.Battery = harvester.NewLiIonCoinCell()
		d.battery = d.chain.Battery
	case NiMH:
		d.chain = core.NewRechargingTempSensor()
		d.battery = d.chain.Battery
	default:
		panic("lifecycle: unknown archetype")
	}
	return d
}

// Battery exposes the device's storage element (nil for the
// battery-free sensor) — the examples read trajectories off it.
func (d *Device) Battery() *harvester.Battery { return d.battery }

// State returns the device's current lifecycle state.
func (d *Device) State() State { return d.state }

// Begin arms the device for one home run: the RF geometry is pinned to
// the home's sensor placement (the Jawbone charger keeps its fixed
// 6 cm USB perch), storage is reset to the policy's initial state, and
// metrics are cleared. binWidth must match the run's logging bin
// width; a non-positive value resolves to the deploy default, matching
// what deploy.Sampler.RunBatch runs with when the caller leaves
// Options.BinWidth zero. A pooled Device after Begin is indistinguishable from a fresh
// one.
func (d *Device) Begin(sensorFt float64, binWidth time.Duration) {
	if binWidth <= 0 {
		binWidth = deploy.DefaultOptions().BinWidth
	}
	d.distFt = sensorFt
	d.dtS = binWidth.Seconds()
	d.state = StateBoot
	d.capE = 0
	d.frameCredit = 0
	d.m = Metrics{
		Kind:         d.Kind,
		FirstUpdateS: math.Inf(1),
		TimeToFullS:  math.Inf(1),
		FinalSoC:     math.NaN(),
		MinSoC:       math.NaN(),
	}
	if d.chain != nil {
		d.chain.Exact = d.Exact
		d.chain.Tele = d.Trace
	}
	if d.cam != nil {
		d.cam.Exact = d.Exact
		d.cam.Tele = d.Trace
	}
	if d.battery != nil {
		d.battery.SetSoC(d.Policy.InitialSoC)
		d.m.FinalSoC = d.battery.SoC()
		d.m.MinSoC = d.m.FinalSoC
		if d.Kind == RechargingTemp && d.battery.StoredEnergy() >= d.rebootE {
			// The battery-assisted sensor needs no cold start (§3.1:
			// the bq25570 boots from the battery).
			d.state = StateOperate
		}
	}
}

// Metrics returns the run summary accumulated since Begin.
func (d *Device) Metrics() Metrics { return d.m }

// VisitBin advances the ledger by one logging bin.
func (d *Device) VisitBin(s deploy.BinSample) {
	dt := d.dtS
	binStart := float64(s.Bin) * dt
	var b BinStats
	b.Bin = s.Bin
	b.SoCPct = math.NaN()

	switch d.Kind {
	case TempSensor:
		d.stepTempSensor(s, binStart, dt, &b)
	case RechargingTemp:
		d.stepRechargingTemp(s, binStart, dt, &b)
	case Camera:
		d.stepCamera(s, binStart, dt, &b)
	default:
		d.stepCharger(s, binStart, dt, &b)
	}

	d.m.Bins++
	d.m.TotalS += dt
	if b.Outage {
		d.m.OutageBins++
		if d.state == StateOperate {
			d.state = StateBrownout
			d.Trace.Brownout(s.Bin)
		}
	} else {
		if d.state != StateOperate {
			d.Trace.Boot(s.Bin)
		}
		d.state = StateOperate
	}
	if d.battery != nil {
		soc := d.battery.SoC()
		b.SoCPct = soc * 100
		d.m.FinalSoC = soc
		if soc < d.m.MinSoC {
			d.m.MinSoC = soc
		}
	}
	if d.OnBin != nil {
		d.OnBin(b)
	}
}

// VisitBatch advances the ledger over a finished batch of bins — the
// ledger stage of the fleet and the facade alike. The per-bin state threading is
// inherently sequential (each bin's storage state feeds the next), so
// the batch form walks the struct-of-arrays columns in order; it visits
// exactly the bins VisitBin would and leaves identical state, metrics
// and OnBin observations.
func (d *Device) VisitBatch(b *deploy.BinBatch) {
	for i, n := 0, b.Len(); i < n; i++ {
		d.VisitBin(b.Sample(i))
	}
}

// chainLink assembles the bin's power link for the bq25570-backed
// archetypes: the standard PoWiFi router at the home's sensor
// placement under this bin's measured occupancy.
func (d *Device) chainLink(s deploy.BinSample) core.PowerLink {
	return core.PoWiFiLinkOccupancy(d.distFt, s.Occupancy)
}

// stepTempSensor threads the battery-free sensor's storage capacitor
// across bins: dark bins bleed the node out (forcing a cold start),
// powered bins first charge it to the Seiko's 2.4 V release and then
// read energy-neutrally for the remainder. The runner has already
// evaluated the battery-free chain for this bin, so the step costs no
// extra solve.
func (d *Device) stepTempSensor(s deploy.BinSample, binStart, dt float64, b *BinStats) {
	p := s.NetHarvestedW
	b.HarvestW = p
	if p <= 0 || s.SensorRate <= 0 {
		// Chain dark: the storage node decays toward zero, so the next
		// powered bin pays the cold-start charge again.
		d.capE *= math.Exp(-dt / darkDecayTauS)
		b.Outage = true
		return
	}
	tOp := dt
	if d.capE < d.releaseE {
		tCharge := (d.releaseE - d.capE) / p
		if tCharge >= dt {
			// Still cold-starting at bin end.
			d.capE += p * dt
			b.Outage = true
			return
		}
		d.capE = d.releaseE
		tOp = dt - tCharge
	}
	// Operating: reads are energy-neutral at the bin's measured rate
	// (the release→brownout window holds exactly one read, so the
	// capacitor rides the 1.9-2.4 V band and carries releaseE forward).
	updates := s.SensorRate * tOp
	if updates > 0 && math.IsInf(d.m.FirstUpdateS, 1) {
		d.m.FirstUpdateS = binStart + (dt - tOp) + 1/s.SensorRate
	}
	d.m.OperatingS += tOp
	d.m.Updates += updates
	b.Updates = updates
	b.IntervalS = 1 / s.SensorRate
}

// stepRechargingTemp runs the battery-backed sensor's duty cycle: the
// bq25570 chain charges (or quiescently drains) the NiMH pack, and the
// policy spends one read energy per UpdateEvery while the pack lasts.
func (d *Device) stepRechargingTemp(s deploy.BinSample, binStart, dt float64, b *BinStats) {
	d.battery.SelfDischarge(dt)
	_, p := d.chain.Evaluate(s.Bin, d.chainLink(s))
	b.HarvestW = p
	if p > 0 {
		d.battery.Charge(p * dt)
	} else if p < 0 {
		d.battery.Discharge(-p * dt)
	}
	if d.state != StateOperate && d.battery.StoredEnergy() < d.rebootE {
		b.Outage = true // browned out and still below the restart threshold
		return
	}
	every := d.Policy.UpdateEvery.Seconds()
	need := dt / every * d.readE
	got := d.battery.Discharge(need)
	updates := got / d.readE
	if updates <= 0 {
		b.Outage = true
		return
	}
	if math.IsInf(d.m.FirstUpdateS, 1) {
		d.m.FirstUpdateS = binStart + math.Min(every, dt)
	}
	// A bin that runs dry midway still counts its operating prefix; the
	// next bin's empty battery then fails the reboot gate and drives
	// the Operate → Brownout transition.
	d.m.OperatingS += dt * (got / need)
	d.m.Updates += updates
	b.Updates = updates
	b.IntervalS = every
}

// stepCamera banks the bq25570 chain's net output (after standby) into
// the coin cell and captures 10.4 mJ frames as energy and the policy's
// frame-rate cap allow.
func (d *Device) stepCamera(s deploy.BinSample, binStart, dt float64, b *BinStats) {
	d.battery.SelfDischarge(dt)
	p := d.cam.Evaluate(s.Bin, d.chainLink(s))
	b.HarvestW = p
	s0 := d.battery.StoredEnergy()
	if p > 0 {
		d.battery.Charge(p * dt)
	} else if p < 0 {
		d.battery.Discharge(-p * dt)
	}
	s1 := d.battery.StoredEnergy()

	// The duty-cycle policy caps frames per bin; credit carries across
	// bins so UpdateEvery > BinWidth still frames eventually.
	frames := 0
	if every := d.Policy.UpdateEvery.Seconds(); every > 0 {
		d.frameCredit += dt / every
		for d.frameCredit >= 1 && d.battery.StoredEnergy() >= d.frameE {
			d.battery.Discharge(d.frameE)
			d.frameCredit--
			frames++
		}
	} else {
		for d.battery.StoredEnergy() >= d.frameE {
			d.battery.Discharge(d.frameE)
			frames++
		}
	}
	if frames == 0 {
		// No capture: progress only if the cell is actually filling.
		b.Outage = s1 <= s0
		if !b.Outage {
			d.m.OperatingS += dt
		}
		return
	}
	if math.IsInf(d.m.FirstUpdateS, 1) {
		// First frame: interpolate the stored-energy crossing of one
		// frame's worth within this bin.
		t := 0.0
		if s1 > s0 && s0 < d.frameE {
			t = dt * (d.frameE - s0) / (s1 - s0)
		}
		d.m.FirstUpdateS = binStart + t
	}
	d.m.OperatingS += dt
	d.m.Updates += float64(frames)
	d.m.Frames += frames
	b.Updates = float64(frames)
	b.IntervalS = dt / float64(frames)
}

// stepCharger integrates pure battery charging: the Jawbone's fixed
// high-power USB chain, or the bq25570 chain at the home's sensor
// placement for the Li-Ion/NiMH cells. Progress means positive net
// charge; the headline metric is the interpolated time at which the
// battery first reaches the policy's FullSoC.
func (d *Device) stepCharger(s deploy.BinSample, binStart, dt float64, b *BinStats) {
	d.battery.SelfDischarge(dt)
	var p float64
	if d.Kind == Jawbone {
		for i, w := range d.jawboneFullW {
			occ := s.Occupancy[i]
			if occ < 0 {
				occ = 0
			}
			if occ > 1 {
				occ = 1
			}
			p += w * occ
		}
		p *= jawboneEff
	} else {
		_, p = d.chain.Evaluate(s.Bin, d.chainLink(s))
	}
	b.HarvestW = p
	s0 := d.battery.StoredEnergy()
	if p > 0 {
		d.battery.Charge(p * dt)
	} else if p < 0 {
		d.battery.Discharge(-p * dt)
	}
	s1 := d.battery.StoredEnergy()
	if s1 <= s0 {
		b.Outage = true
		return
	}
	d.m.OperatingS += dt
	fullE := d.Policy.FullSoC * d.battery.CapacityJ
	if math.IsInf(d.m.TimeToFullS, 1) && s1 >= fullE {
		d.m.TimeToFullS = binStart + dt*(fullE-s0)/(s1-s0)
	}
}

// Group runs several devices over one home in a single deployment
// pass — a household with a sensor on the shelf, a camera by the door
// and a tracker on the charger. VisitBatch hands the home's finished
// batch to every device in order.
type Group []*Device

// Begin arms every device in the group.
func (g Group) Begin(sensorFt float64, binWidth time.Duration) {
	for _, d := range g {
		d.Begin(sensorFt, binWidth)
	}
}

// VisitBatch advances every device's ledger over the batch. The
// devices share no state, so visiting them one after another leaves
// each exactly as a bin-by-bin fan-out would.
func (g Group) VisitBatch(b *deploy.BinBatch) {
	for _, d := range g {
		d.VisitBatch(b)
	}
}

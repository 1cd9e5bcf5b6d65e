package harvester

import (
	"math"

	"repro/internal/diode"
	"repro/internal/rf"
	"repro/internal/units"
)

// Version selects between the paper's two harvester designs.
type Version int

// The two prototype versions of §3.1/Fig. 4.
const (
	// BatteryFree boots from 0 V through the Seiko S-882Z charge pump
	// (6.8 nH / 1.5 pF matching network).
	BatteryFree Version = iota
	// BatteryCharging uses the TI bq25570 with a pre-charged battery, so
	// no cold start is needed (6.8 nH / 1.3 pF matching network).
	BatteryCharging
)

// String returns the paper's name for the version.
func (v Version) String() string {
	if v == BatteryFree {
		return "battery-free"
	}
	return "battery-recharging"
}

// Harvester is a complete PoWiFi harvesting front end: matching network,
// voltage-doubler rectifier and DC–DC converter. It converts incident RF
// power on the 2.4 GHz band into DC power at the converter output.
//
// The harvester is deliberately oblivious to packet boundaries: its input
// is simply incident power versus time, which is the property the PoWiFi
// router design exploits (§3: "the harvester cannot distinguish between
// useful client traffic and superfluous power traffic").
type Harvester struct {
	Version Version
	Match   rf.HighPassLSection
	Rect    diode.Doubler
	Seiko   *SeikoS882Z // set for BatteryFree
	BQ      *BQ25570    // set for BatteryCharging

	// CalibrationDBm is the drive level at which the design-point input
	// impedance (and hence Fig. 9's VNA-style return loss) is evaluated.
	CalibrationDBm float64
}

// NewBatteryFree returns the battery-free harvester: high-pass L-section
// matching (the paper's 6.8 nH Coilcraft inductor as the shunt element;
// the series capacitor re-derived for this circuit model — see DESIGN.md),
// SMS7630 doubler, and the Seiko S-882Z charge pump. Calibrated to the
// paper's measured -17.8 dBm sensitivity and sub -10 dB in-band return
// loss (Figs. 9a/10a).
func NewBatteryFree() *Harvester {
	return &Harvester{
		Version: BatteryFree,
		Match:   rf.HighPassLSection{SeriesC: 0.29e-12, ShuntL: 6.8e-9, InductorQ: 100},
		Rect: diode.Doubler{
			Diode:  diode.SMS7630(),
			FreqHz: 2.437e9,
			PadCj:  0.20e-12,
		},
		Seiko:          NewSeikoS882Z(),
		CalibrationDBm: -10,
	}
}

// NewBatteryCharging returns the battery-recharging harvester: high-pass
// L-section matching around the same 6.8 nH inductor, SMS7630 doubler, and
// the TI bq25570 with its MPPT reference at 200 mV (§3.1). Calibrated to
// the paper's measured -19.3 dBm sensitivity (Figs. 9b/10b).
func NewBatteryCharging() *Harvester {
	return &Harvester{
		Version: BatteryCharging,
		Match:   rf.HighPassLSection{SeriesC: 0.40e-12, ShuntL: 6.8e-9, InductorQ: 100},
		Rect: diode.Doubler{
			Diode:  diode.SMS7630(),
			FreqHz: 2.437e9,
			PadCj:  0.15e-12,
		},
		BQ:             NewBQ25570(),
		CalibrationDBm: -10,
	}
}

// converterLoad returns the DC load line i(v) the converter presents to
// the rectifier output.
func (h *Harvester) converterLoad() func(v float64) float64 {
	if h.Version == BatteryFree {
		return h.Seiko.InputCurrent
	}
	return h.BQ.InputCurrent
}

// ConverterLoad exposes the converter's DC load line i(v) so the
// operating-point surface can tabulate the rectifier solve against the
// very load the exact solver uses.
func (h *Harvester) ConverterLoad() func(v float64) float64 { return h.converterLoad() }

// rectifierImpedance returns the complex input impedance of the rectifier
// (series equivalent of the solver's parallel R with the junction + pad
// capacitance) when it accepts pacc watts at freqHz with its output at
// vout volts.
func (h *Harvester) rectifierImpedance(pacc, vout, freqHz float64) rf.Impedance {
	return h.RectifierSeriesImpedance(h.Rect.InputResistance(pacc, vout), freqHz)
}

// RectifierSeriesImpedance converts a rectifier parallel input resistance
// rp into the series-equivalent complex impedance at freqHz, folding in
// the junction + pad capacitance. It is the impedance half of the
// operating-point solve, split out so a precomputed rp (for example from
// internal/surface's interpolation tables) can reuse the exact
// parallel-to-series conversion.
func (h *Harvester) RectifierSeriesImpedance(rp, freqHz float64) rf.Impedance {
	cp := h.Rect.InputCapacitance()
	xp := 1 / (2 * math.Pi * freqHz * cp)
	if math.IsInf(rp, 1) {
		// Unpowered rectifier: purely capacitive.
		return complex(0, -xp)
	}
	// Parallel Rp ∥ Cp to series equivalent.
	q := rp / xp
	rs := rp / (1 + q*q)
	xs := xp * q * q / (1 + q*q)
	return complex(rs, -xs)
}

// AcceptedPower returns the RF power accepted into the rectifier for an
// incident power at freqHz, resolving the circular dependence between the
// rectifier's drive-dependent impedance and the matching network's
// transfer fraction by fixed-point iteration.
func (h *Harvester) AcceptedPower(incidentW, freqHz float64) float64 {
	if incidentW <= 0 {
		return 0
	}
	load := h.converterLoad()
	acc := 0.8 * incidentW
	for i := 0; i < 8; i++ {
		vout, _ := h.Rect.OperatingPoint(acc, load)
		z := h.rectifierImpedance(acc, vout, freqHz)
		frac := h.Match.PowerTransferFraction(z, freqHz)
		next := incidentW * frac
		if math.Abs(next-acc) < 1e-12 {
			acc = next
			break
		}
		acc = 0.5*acc + 0.5*next // damped update for stability
	}
	return acc
}

// ReturnLossDB returns the harvester's VNA-measured return loss at freqHz
// (Fig. 9): the input match evaluated at the calibration drive level with
// the converter connected, exactly as the paper measures it.
func (h *Harvester) ReturnLossDB(freqHz float64) float64 {
	pacc := h.AcceptedPower(units.DBmToWatts(h.CalibrationDBm), freqHz)
	vout, _ := h.Rect.OperatingPoint(pacc, h.converterLoad())
	z := h.rectifierImpedance(pacc, vout, freqHz)
	return h.Match.ReturnLossDB(z, freqHz)
}

// Operating describes the harvester's steady-state DC operating point.
type Operating struct {
	// AcceptedW is the RF power entering the rectifier after mismatch.
	AcceptedW float64
	// VRect is the rectifier output voltage.
	VRect float64
	// IRect is the DC current into the converter.
	IRect float64
	// RectDCW is VRect·IRect, the paper's "available power at the
	// rectifier output" (Fig. 10).
	RectDCW float64
	// HarvestedW is the power delivered past the converter: into the
	// storage capacitor (battery-free) or the battery net of quiescent
	// draw (battery-recharging).
	HarvestedW float64
}

// OperatingPoint returns the steady-state operating point for a single
// carrier of incidentW watts at freqHz.
func (h *Harvester) OperatingPoint(incidentW, freqHz float64) Operating {
	acc := h.AcceptedPower(incidentW, freqHz)
	load := h.converterLoad()
	v, i := h.Rect.OperatingPoint(acc, load)
	return Operating{AcceptedW: acc, VRect: v, IRect: i, RectDCW: v * i,
		HarvestedW: h.ConverterHarvest(v, i)}
}

// ConverterHarvest maps a rectifier DC operating point (vout, iout) to the
// power delivered past this harvester's DC–DC converter: through the Seiko
// pump for the battery-free version, through the bq25570 (net of quiescent
// draw) for the battery-recharging version.
func (h *Harvester) ConverterHarvest(v, i float64) float64 {
	if h.Version == BatteryFree {
		return h.Seiko.OutputPower(v)
	}
	return h.BQ.NetChargePower(v, i)
}

// ChannelPower is incident RF power on one Wi-Fi channel.
type ChannelPower struct {
	FreqHz float64
	PowerW float64
}

// MultiChannelOperatingPoint returns the operating point when power
// arrives simultaneously on several Wi-Fi channels (the PoWiFi router
// transmits on channels 1, 6 and 11). Accepted powers superpose at the
// rectifier input — the harvester is a wideband envelope detector and
// cannot distinguish the channels, which is the multi-channel design goal
// of §3.1.
func (h *Harvester) MultiChannelOperatingPoint(chans []ChannelPower) Operating {
	if len(chans) == 0 {
		return Operating{}
	}
	// Fixed point over the total accepted power: each channel's transfer
	// fraction is evaluated at its own frequency against the impedance set
	// by the total drive.
	load := h.converterLoad()
	total := 0.0
	for _, c := range chans {
		total += 0.8 * c.PowerW
	}
	for iter := 0; iter < 8; iter++ {
		vout, _ := h.Rect.OperatingPoint(total, load)
		next := 0.0
		for _, c := range chans {
			if c.PowerW <= 0 {
				continue
			}
			z := h.rectifierImpedance(total, vout, c.FreqHz)
			next += c.PowerW * h.Match.PowerTransferFraction(z, c.FreqHz)
		}
		if math.Abs(next-total) < 1e-12 {
			total = next
			break
		}
		total = 0.5*total + 0.5*next
	}
	v, i := h.Rect.OperatingPoint(total, load)
	return Operating{AcceptedW: total, VRect: v, IRect: i, RectDCW: v * i,
		HarvestedW: h.ConverterHarvest(v, i)}
}

// CanOperate reports whether the harvester sustains useful output at the
// given single-carrier incident power. The battery-free version must pull
// the rectifier up to the Seiko's 300 mV startup threshold against the
// pump's idle leak (once started, the pump runs in bursts even if its full
// draw would sag the node). The battery-recharging version must achieve
// positive net charge power.
func (h *Harvester) CanOperate(incidentW, freqHz float64) bool {
	if h.Version == BatteryFree {
		return h.StartupVoltage(incidentW, freqHz) >= h.Seiko.StartupV
	}
	op := h.OperatingPoint(incidentW, freqHz)
	return op.HarvestedW > 0
}

// StartupVoltage returns the rectifier output voltage reached under the
// Seiko pump's pre-start idle leak only, resolving the impedance fixed
// point for that light load. This is the quantity the cold-start boot
// check compares against the pump's 300 mV threshold.
func (h *Harvester) StartupVoltage(incidentW, freqHz float64) float64 {
	if incidentW <= 0 {
		return 0
	}
	load := func(v float64) float64 { return h.Seiko.IdleLeakA }
	acc := 0.8 * incidentW
	for i := 0; i < 8; i++ {
		vout, _ := h.Rect.OperatingPoint(acc, load)
		z := h.rectifierImpedance(acc, vout, freqHz)
		next := incidentW * h.Match.PowerTransferFraction(z, freqHz)
		if math.Abs(next-acc) < 1e-12 {
			acc = next
			break
		}
		acc = 0.5*acc + 0.5*next
	}
	v, _ := h.Rect.OperatingPoint(acc, load)
	return v
}

// SensitivityDBm returns the minimum incident power (dBm) at freqHz at
// which the harvester operates, found by bisection. The paper measures
// −17.8 dBm for the battery-free version and −19.3 dBm for the
// battery-recharging version (§4.2).
func (h *Harvester) SensitivityDBm(freqHz float64) float64 {
	lo, hi := -40.0, 10.0
	if !h.CanOperate(units.DBmToWatts(hi), freqHz) {
		return math.Inf(1)
	}
	if h.CanOperate(units.DBmToWatts(lo), freqHz) {
		return lo
	}
	for i := 0; i < 50; i++ {
		mid := (lo + hi) / 2
		if h.CanOperate(units.DBmToWatts(mid), freqHz) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return (lo + hi) / 2
}

// BurstyOperating evaluates the harvester under on/off packet-burst drive,
// the regime every PoWiFi device actually lives in: each channel carries
// its full received power for occupancy-fraction of the time and silence
// otherwise. chans must carry the FULL per-channel received powers, and
// occupancy the per-channel airtime fractions (aligned by index).
//
// The rectifier output capacitor (47 nF against the pump's idle leak,
// τ ≈ 1.3 ms) smooths across the sub-millisecond gaps between packets, so
// during the "any channel active" fraction of time the node is driven by
// the conditional mean of the active power, and it droops by
// leak·gap/C across the silent gaps. Concentrating the same average power
// into bursts helps the nonlinear rectifier — one reason the paper's
// high-cumulative-occupancy design outperforms a naive time-average
// analysis.
func (h *Harvester) BurstyOperating(chans []ChannelPower, occupancy []float64) Operating {
	if len(chans) == 0 || len(chans) != len(occupancy) {
		return Operating{}
	}
	var buf [3]ChannelPower // the three PoWiFi channels; more spill to the heap
	cond, anyActive, ok := BurstyConditional(buf[:0], chans, occupancy)
	if !ok {
		return h.IdleOperating()
	}
	return h.FinishBursty(h.MultiChannelOperatingPoint(cond), anyActive)
}

// BurstyConditional reduces on/off packet-burst drive to the conditional
// mean drive while at least one channel is active: the per-channel
// incident powers conditioned on activity, and the any-channel-active
// probability. ok is false when no channel carries power, in which case
// the chain idles. This conditioning step is shared verbatim by the exact
// solver and the interpolated surface so the two paths cannot diverge in
// their burst model. The conditioned powers are appended to dst, so a
// caller that passes a stack buffer with room for its channels keeps the
// query off the heap.
//
//powifi:noalloc
func BurstyConditional(dst, chans []ChannelPower, occupancy []float64) (cond []ChannelPower, anyActive float64, ok bool) {
	// Probability at least one channel is transmitting.
	silent := 1.0
	avgTotal := 0.0
	for i, c := range chans {
		occ := occupancy[i]
		if occ < 0 {
			occ = 0
		}
		if occ > 1 {
			occ = 1
		}
		silent *= 1 - occ
		avgTotal += c.PowerW * occ
	}
	anyActive = 1 - silent
	if anyActive <= 0 || avgTotal <= 0 {
		return dst, anyActive, false
	}
	// Conditional mean incident power while active, distributed across
	// channels in proportion to their average contributions.
	for i, c := range chans {
		dst = append(dst, ChannelPower{FreqHz: c.FreqHz, PowerW: c.PowerW * occupancy[i] / anyActive})
	}
	return dst, anyActive, true
}

// IdleOperating returns the operating point of a chain with no RF drive:
// nothing for the battery-free version, the quiescent drain for the
// battery-recharging version.
func (h *Harvester) IdleOperating() Operating {
	if h.Version == BatteryCharging {
		return Operating{HarvestedW: -h.BQ.QuiescentW}
	}
	return Operating{}
}

// FinishBursty time-averages a conditional operating point back over the
// active fraction; the quiescent drain of the battery-charging chain runs
// around the clock.
func (h *Harvester) FinishBursty(op Operating, anyActive float64) Operating {
	switch h.Version {
	case BatteryFree:
		op.HarvestedW *= anyActive
	case BatteryCharging:
		gross := op.HarvestedW + h.BQ.QuiescentW
		if gross < 0 {
			gross = 0
		}
		op.HarvestedW = gross*anyActive - h.BQ.QuiescentW
	}
	return op
}

// Bursty cold-start constants: typical Wi-Fi busy-period length and the
// rectifier output node capacitance the silent-gap droop works against.
const (
	burstBusyS = 250e-6
	rectNodeC  = 47e-9
)

// BootDrive reduces bursty drive to the cold-start check's inputs: the
// conditional incident power while active, the power-weighted mean
// frequency, and the voltage droop the idle leak causes across a typical
// silent gap. ok is false when no channel carries power (the device can
// never boot). Only meaningful for the battery-free version.
func (h *Harvester) BootDrive(chans []ChannelPower, occupancy []float64) (condW, freqHz, droopV float64, ok bool) {
	if len(chans) == 0 || len(chans) != len(occupancy) {
		return 0, 0, 0, false
	}
	silent := 1.0
	total := 0.0
	freqWeighted := 0.0
	for i, c := range chans {
		occ := math.Max(0, math.Min(1, occupancy[i]))
		silent *= 1 - occ
		total += c.PowerW * occ
		freqWeighted += c.FreqHz * c.PowerW * occ
	}
	anyActive := 1 - silent
	if anyActive <= 0 || total <= 0 {
		return 0, 0, 0, false
	}
	// Mean silent gap assuming ~250 µs busy periods alternating with
	// exponential gaps: gap ≈ busy·(1-p)/p.
	gap := burstBusyS * silent / anyActive
	return total / anyActive, freqWeighted / total, h.Seiko.IdleLeakA * gap / rectNodeC, true
}

// CanBootBursty reports whether the battery-free harvester clears its
// cold-start threshold under bursty drive: the startup voltage reached at
// the conditional active power must exceed the 300 mV threshold plus the
// droop the idle leak causes across a typical silent gap.
func (h *Harvester) CanBootBursty(chans []ChannelPower, occupancy []float64) bool {
	if h.Version != BatteryFree {
		return true
	}
	condW, freq, droop, ok := h.BootDrive(chans, occupancy)
	if !ok {
		return false
	}
	return h.StartupVoltage(condW, freq) >= h.Seiko.StartupV+droop
}

// Package surface is the error-bounded operating-point surface for the
// fleet hot path: a deterministic interpolation layer that caches the
// harvester's rectifier operating-point solve (a cycle-averaged Shockley
// solve via log-domain Bessel functions, nested inside bisections) on an
// adaptively refined monotone grid, so the per-bin cost of
// core.TempSensorDevice.Evaluate drops from a millisecond-scale numeric
// solve to a bounded table lookup.
//
// # What is tabulated
//
// Everything expensive in the bursty-drive solve factors through three
// smooth one-dimensional functions of the total accepted RF power a:
//
//   - VRect(a), IRect(a): the rectifier DC operating point under the
//     converter load line, and
//   - Rp(a): the rectifier's parallel input resistance at that point
//
// tabulated once for the running converter load and once (battery-free
// only) for the Seiko pump's pre-start idle leak. The frequency- and
// channel-dependent algebra — Friis link budgets, the parallel-to-series
// impedance conversion, the matching network's transfer fraction, the
// bursty conditioning, and the multi-channel fixed point — is cheap
// closed-form arithmetic and stays exact, shared with the direct solver
// through the exported helpers in internal/harvester. The surface
// therefore handles any distance, wall, channel mix, or occupancy vector
// without growing extra grid dimensions.
//
// # The ε guarantee
//
// Grids are refined until monotone-cubic (PCHIP) interpolation matches
// the exact solver at every interval midpoint within Options.Epsilon
// divided by a safety factor that covers the error amplification through
// the fixed point and the converter maps. Queries outside the grid
// domain fall back to the exact solver, as does any query whose
// interpolated rectifier voltage lands within a guard band of the Seiko
// pump's 300 mV threshold — the one genuine discontinuity in the chain —
// so boot decisions are always bit-identical to the exact path. The
// property suite asserts |interp − exact| ≤ ε end to end on randomized
// link budgets.
//
// # Determinism
//
// A surface is a pure function of the harvester's configuration and the
// build options: node placement derives from deterministic midpoint
// bisection against the exact solver, never from query order, worker
// count, or scheduling. Built surfaces are immutable, so fleet runs stay
// bit-for-bit identical at any -workers value.
//
// # The embedded table
//
// Because a build is a pure function of its inputs, the production
// surfaces (the battery-free and battery-charging harvesters at
// DefaultOptions) are built once and committed as surfaces.bin, which
// For decodes instead of rebuilding — the same grids, bit for bit, in
// well under a millisecond instead of most of a second. TestEmbeddedTables
// fails whenever New would build something else; regenerate the table
// with go generate.
package surface

import (
	"math"

	"repro/internal/harvester"
	"repro/internal/phy"
	"repro/internal/rf"
)

// Options parameterizes a surface build.
type Options struct {
	// Epsilon is the relative error bound the surface certifies for
	// harvested power (and hence sensor update rate) against the exact
	// solver. Default 1e-6.
	Epsilon float64
	// AMinW and AMaxW bound the accepted-power domain of the grids;
	// queries outside fall back to the exact solver.
	AMinW, AMaxW float64
	// MaxNodes caps each grid's node count.
	MaxNodes int
	// VBandV is the guard band (volts) around the Seiko pump's startup
	// threshold within which the surface defers to the exact solver.
	VBandV float64
}

// DefaultOptions returns the production configuration: ε = 1e-6 over an
// accepted-power domain that covers every link budget the simulator can
// produce between ~0.6 ft and far beyond the sensitivity floor.
func DefaultOptions() Options {
	return Options{
		Epsilon:  1e-6,
		AMinW:    1e-12,
		AMaxW:    0.1,
		MaxNodes: 6000,
		VBandV:   1e-3,
	}
}

// withDefaults fills zero fields from DefaultOptions.
func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.Epsilon <= 0 {
		o.Epsilon = d.Epsilon
	}
	if o.AMinW <= 0 {
		o.AMinW = d.AMinW
	}
	if o.AMaxW <= o.AMinW {
		o.AMaxW = d.AMaxW
	}
	if o.MaxNodes <= 0 {
		o.MaxNodes = d.MaxNodes
	}
	if o.VBandV <= 0 {
		o.VBandV = d.VBandV
	}
	return o
}

// safetyFactor divides Epsilon to obtain the per-node midpoint tolerance:
// it covers the error amplification from interpolated input resistance
// through the multi-channel fixed point (the transfer fraction's O(1)
// sensitivity to ln Rp times the harvest curve's log-slope near its knee)
// plus the converter map's v² dependence. The property suite measures the
// end-to-end error the factor leaves and asserts it stays under Epsilon.
const safetyFactor = 16

// Curve indices within the operating and startup grids.
const (
	curveV    = 0 // rectifier output voltage (V)
	curveI    = 1 // rectifier output current (A)
	curveLnRp = 2 // ln of the rectifier's parallel input resistance (Ω)
)

// Surface is the error-bounded operating-point surface for one harvester
// assembly. It is immutable after construction and safe for concurrent
// use.
type Surface struct {
	h    *harvester.Harvester
	opts Options

	op   *grid // operating (converter) load: v, i, ln rp over ln a
	boot *grid // startup idle-leak load (battery-free only): v, ln rp

	// xfer caches the matching network's per-frequency constants for
	// the three PoWiFi channel frequencies, precomputed at build with
	// the exact expressions PowerTransferFraction evaluates, so the
	// per-bin fixed point recomputes only the load-dependent terms.
	// Queries at other frequencies fall through to the network itself.
	// Immutable after construction, hence safe for concurrent readers.
	xfer [3]freqXfer
	hp   rf.HighPassLSection // the network behind xfer, when hpOK
	hpOK bool

	embedded bool // grids decoded from the embedded table, not built
}

// freqXfer holds one frequency's load-independent constants: the
// matching network's shunt inductor and series capacitor impedances,
// the inductor's shunt conductance, and the rectifier's input reactance
// magnitude — everything in the per-iteration transfer evaluation that
// does not depend on the rectifier load. Each value is produced by the
// exact expression its consumer would otherwise recompute, so serving
// it from the cache is bit-identical.
type freqXfer struct {
	valid  bool
	freq   float64
	zl, zc rf.Impedance
	gl     float64
	xp     float64 // 1/(ω·Cin): rectifier input reactance at freq
}

// xferFor returns the constants for freqHz: from the channel cache when
// it hits, built on the spot for other frequencies (the boot path's
// power-weighted mean frequency). ok is false when the network is not
// the high-pass L-section, in which case callers use the generic path.
func (s *Surface) xferFor(freqHz float64) (freqXfer, bool) {
	for i := range s.xfer {
		if s.xfer[i].valid && s.xfer[i].freq == freqHz {
			return s.xfer[i], true
		}
	}
	if !s.hpOK {
		return freqXfer{}, false
	}
	return s.buildXfer(freqHz), true
}

// buildXfer computes the constants with the same expressions
// HighPassLSection.PowerTransferFraction and
// Harvester.RectifierSeriesImpedance evaluate.
func (s *Surface) buildXfer(freqHz float64) freqXfer {
	zl := rf.InductorImpedance(s.hp.ShuntL, freqHz, s.hp.InductorQ)
	cp := s.h.Rect.InputCapacitance()
	return freqXfer{
		valid: true,
		freq:  freqHz,
		zl:    zl,
		zc:    rf.CapacitorImpedance(s.hp.SeriesC, freqHz, s.hp.CapacitorQ),
		gl:    real(1 / zl),
		xp:    1 / (2 * math.Pi * freqHz * cp),
	}
}

// rsiFromXp mirrors Harvester.RectifierSeriesImpedance with the
// frequency term precomputed: the parallel Rp ∥ Cp to series conversion
// on the same expressions.
func rsiFromXp(rp, xp float64) rf.Impedance {
	if math.IsInf(rp, 1) {
		// Unpowered rectifier: purely capacitive.
		return complex(0, -xp)
	}
	q := rp / xp
	rs := rp / (1 + q*q)
	xs := xp * q * q / (1 + q*q)
	return complex(rs, -xs)
}

// transferWith mirrors HighPassLSection.PowerTransferFraction with the
// load-independent terms served from x.
func transferWith(x *freqXfer, z rf.Impedance) float64 {
	zin := x.zc + rf.Parallel(x.zl, z)
	accepted := rf.MismatchLossFraction(zin, rf.Z0)
	if accepted < 0 {
		accepted = 0
	}
	gload := real(1 / z)
	if x.gl+gload <= 0 {
		return 0
	}
	return accepted * gload / (x.gl + gload)
}

// Stats reports how a surface was built, for tests and diagnostics.
type Stats struct {
	Epsilon        float64
	OpNodes        int
	BootNodes      int
	ExactEvals     int
	MaxMidpointErr float64 // worst certified midpoint error (relative)
	Unresolved     int     // width-floored intervals still over tolerance
}

// newSurface returns a surface for h without grids, with the matching
// network's per-channel constants precomputed. New fills its grids by
// building them, the embedded table by decoding them.
func newSurface(h *harvester.Harvester, opts Options) *Surface {
	s := &Surface{h: h, opts: opts}
	if hp, isHighPass := h.Match.(rf.HighPassLSection); isHighPass {
		s.hp = hp
		s.hpOK = true
		for i, chNum := range phy.PoWiFiChannels {
			s.xfer[i] = s.buildXfer(chNum.FreqHz())
		}
	}
	return s
}

// New builds the surface for h deterministically from its configuration.
// The build spends a few thousand exact operating-point solves — most of
// a second. It is the generator of the embedded table and the reference
// the tests certify that table against; production callers go through
// For, which serves the production harvesters from the table.
func New(h *harvester.Harvester, opts Options) *Surface {
	opts = opts.withDefaults()
	s := newSurface(h, opts)

	// Below vRelevant the converter cannot act on the rectifier voltage —
	// the battery-free pump needs 300 mV to start, the bq25570 needs
	// 100 mV to run — so v and i there cannot influence any output
	// (harvest is identically zero or pinned at the quiescent drain, and
	// PCHIP's no-overshoot property keeps the interpolant below the
	// thresholds wherever the exact curve is). Waiving certification
	// there matters: v(a) turns near-vertical and i(a) jumps where the
	// rectifier first meets the idle-leak load line, and refining those
	// sub-threshold features would burn the entire node budget on digits
	// no output depends on.
	vRelevant := 0.25 // just under the Seiko 300 mV startup threshold
	if h.Version != harvester.BatteryFree {
		vRelevant = 0.09 // just under the bq25570's 100 mV operating floor
	}
	subThreshold := func(exact []float64) bool { return exact[curveV] < vRelevant }

	// Per-curve error budgets. The harvest maps amplify v errors by at
	// most v² (Seiko) and are linear in i (bq25570), so those curves get
	// ε/8 and ε/4; ln Rp drives the accepted-power fixed point whose
	// amplification through the harvest knee is larger, so it gets the
	// full safety factor. The absolute floors mark where digits stop
	// being physics: a nanovolt on a volt-scale node, a picoamp against
	// microamp loads, ε/16 relative on Rp.
	eps := opts.Epsilon
	vSpec := curveSpec{name: "v", relTol: eps / 8, absTol: 1e-9, skip: subThreshold}
	iSpec := curveSpec{name: "i", relTol: eps / 4, absTol: 1e-12, skip: subThreshold}
	rpSpec := curveSpec{name: "lnRp", absTol: eps / safetyFactor}
	base := buildSpec{
		xMin:      math.Log(opts.AMinW),
		xMax:      math.Log(opts.AMaxW),
		initNodes: 129,
		maxNodes:  opts.MaxNodes,
		minWidth:  1e-6,
		maxPasses: 100,
		curves:    []curveSpec{vSpec, iSpec, rpSpec},
	}

	opSpec := base
	opSpec.eval = func(x float64) []float64 {
		a := math.Exp(x)
		v, i := h.Rect.OperatingPoint(a, h.ConverterLoad())
		rp := h.Rect.InputResistance(a, v)
		return []float64{v, i, math.Log(rp)}
	}
	s.op = buildGrid(opSpec)

	if h.Version == harvester.BatteryFree {
		bootSpec := base
		// The boot check reads only the startup voltage (and the input
		// resistance that locates the accepted-power fixed point); the
		// idle-leak current is constant by construction and never read.
		bootI := iSpec
		bootI.skip = func([]float64) bool { return true }
		bootSpec.curves = []curveSpec{vSpec, bootI, rpSpec}
		bootSpec.eval = func(x float64) []float64 {
			a := math.Exp(x)
			leak := func(float64) float64 { return h.Seiko.IdleLeakA }
			v, i := h.Rect.OperatingPoint(a, leak)
			rp := h.Rect.InputResistance(a, v)
			return []float64{v, i, math.Log(rp)}
		}
		s.boot = buildGrid(bootSpec)
	}
	return s
}

// Epsilon returns the certified relative error bound.
func (s *Surface) Epsilon() float64 { return s.opts.Epsilon }

// Stats returns build diagnostics.
func (s *Surface) Stats() Stats {
	st := Stats{
		Epsilon:        s.opts.Epsilon,
		OpNodes:        len(s.op.xs),
		ExactEvals:     s.op.evals,
		MaxMidpointErr: s.op.maxMidErr,
		Unresolved:     s.op.unresolved,
	}
	if s.boot != nil {
		st.BootNodes = len(s.boot.xs)
		st.ExactEvals += s.boot.evals
		st.MaxMidpointErr = math.Max(st.MaxMidpointErr, s.boot.maxMidErr)
		st.Unresolved += s.boot.unresolved
	}
	return st
}

// interpVIAt returns the voltage and current curves at accepted power a
// (the fixed points' closing query, which never consumes Rp), warm-
// started from the iteration's bracket hint.
func interpVIAt(g *grid, a float64, hint int) (v, i float64, ok bool) {
	if a <= 0 {
		return 0, 0, false
	}
	x := math.Log(a)
	lo, ok := g.bracketHint(x, hint)
	if !ok {
		return 0, 0, false
	}
	return g.atIdx(curveV, lo, x), g.atIdx(curveI, lo, x), true
}

// interpRpAt returns only the parallel-resistance curve at accepted
// power a — the single value the fixed-point iterations consume, so the
// loop pays one search and one Hermite evaluation per step. hint warm-
// starts the interval search across iterations (pass a variable holding
// -1 initially).
func interpRpAt(g *grid, a float64, hint *int) (rp float64, ok bool) {
	if a <= 0 {
		return 0, false
	}
	x := math.Log(a)
	lo, ok := g.bracketHint(x, *hint)
	if !ok {
		return 0, false
	}
	*hint = lo
	return math.Exp(g.atIdx(curveLnRp, lo, x)), true
}

// nearSeikoThreshold reports whether an interpolated rectifier voltage
// sits inside the guard band of a battery-free threshold at thresholdV
// (the pump's startup voltage, possibly shifted by droop). Within the
// band the chain's behavior is discontinuous in v, so the caller must
// resolve the query with the exact solver.
func (s *Surface) nearSeikoThreshold(v, thresholdV float64) bool {
	return math.Abs(v-thresholdV) <= s.opts.VBandV
}

// Outcome classifies how the surface answered one query — telemetry
// reads it; the answer itself is identical either way.
type Outcome uint8

const (
	// OutcomeHit: answered from the interpolation grids within the
	// certified ε bound.
	OutcomeHit Outcome = iota
	// OutcomeExact: the query left the grid domain (or the assembly has
	// no fast path) and was re-solved exactly.
	OutcomeExact
	// OutcomeGuardBand: the interpolated rectifier voltage landed
	// within the guard band of the Seiko startup threshold, where the
	// chain is discontinuous, so the exact solver decided.
	OutcomeGuardBand
)

// multiChannelOperatingPoint mirrors Harvester.MultiChannelOperatingPoint
// — same starting point, damping, iteration count and stop tolerance —
// with the interpolated Rp replacing the nested rectifier solves. Any
// outcome other than OutcomeHit means the result is unusable and the
// caller must fall back to the exact solver.
func (s *Surface) multiChannelOperatingPoint(chans []harvester.ChannelPower) (harvester.Operating, Outcome) {
	if len(chans) == 0 {
		return harvester.Operating{}, OutcomeHit
	}
	total := 0.0
	for _, c := range chans {
		total += 0.8 * c.PowerW
	}
	// Hoist each channel's load-independent constants out of the fixed
	// point: frequencies do not change across iterations.
	var xfs [3]freqXfer
	fast := len(chans) <= len(xfs)
	if fast {
		for j, c := range chans {
			var ok bool
			if xfs[j], ok = s.xferFor(c.FreqHz); !ok {
				fast = false
				break
			}
		}
	}
	hint := -1
	for iter := 0; iter < 8; iter++ {
		rp, ok := interpRpAt(s.op, total, &hint)
		if !ok {
			return harvester.Operating{}, OutcomeExact
		}
		next := 0.0
		for j, c := range chans {
			if c.PowerW <= 0 {
				continue
			}
			if fast {
				next += c.PowerW * transferWith(&xfs[j], rsiFromXp(rp, xfs[j].xp))
			} else {
				z := s.h.RectifierSeriesImpedance(rp, c.FreqHz)
				next += c.PowerW * s.h.Match.PowerTransferFraction(z, c.FreqHz)
			}
		}
		if math.Abs(next-total) < 1e-12 {
			total = next
			break
		}
		total = 0.5*total + 0.5*next
	}
	v, i, ok := interpVIAt(s.op, total, hint)
	if !ok {
		return harvester.Operating{}, OutcomeExact
	}
	if s.h.Version == harvester.BatteryFree && s.nearSeikoThreshold(v, s.h.Seiko.StartupV) {
		// The Seiko output switches on discontinuously at the startup
		// threshold; inside the guard band only the exact solver can
		// place v on the right side.
		return harvester.Operating{}, OutcomeGuardBand
	}
	return harvester.Operating{AcceptedW: total, VRect: v, IRect: i, RectDCW: v * i,
		HarvestedW: s.h.ConverterHarvest(v, i)}, OutcomeHit
}

// BurstyOperating is the surface-accelerated counterpart of
// Harvester.BurstyOperating: identical burst conditioning and duty-cycle
// scaling (shared code), with the rectifier solve served from the grid.
// Falls back to the exact solver outside the grid domain or inside the
// Seiko guard band.
func (s *Surface) BurstyOperating(chans []harvester.ChannelPower, occupancy []float64) harvester.Operating {
	op, _ := s.BurstyOperatingOutcome(chans, occupancy)
	return op
}

// BurstyOperatingOutcome is BurstyOperating plus how the query was
// answered — from the grids, or by the exact solver after a domain exit
// or guard-band trigger (the fallback already applied; the Operating is
// final either way). Trivial queries the surface answers closed-form
// (idle bins, degenerate inputs) count as hits.
func (s *Surface) BurstyOperatingOutcome(chans []harvester.ChannelPower, occupancy []float64) (harvester.Operating, Outcome) {
	if len(chans) == 0 || len(chans) != len(occupancy) {
		return harvester.Operating{}, OutcomeHit
	}
	cond, anyActive, ok := harvester.BurstyConditional(chans, occupancy)
	if !ok {
		return s.h.IdleOperating(), OutcomeHit
	}
	op, out := s.multiChannelOperatingPoint(cond)
	if out != OutcomeHit {
		return s.h.BurstyOperating(chans, occupancy), out
	}
	return s.h.FinishBursty(op, anyActive), OutcomeHit
}

// CanBootBursty is the surface-accelerated counterpart of
// Harvester.CanBootBursty. The threshold comparison itself is exact; the
// startup voltage comes from the idle-leak grid, and any query whose
// interpolated voltage lands within the guard band of the (droop-shifted)
// threshold is resolved by the exact solver, so the boolean is always
// bit-identical to the exact path.
func (s *Surface) CanBootBursty(chans []harvester.ChannelPower, occupancy []float64) bool {
	boots, _ := s.CanBootBurstyOutcome(chans, occupancy)
	return boots
}

// CanBootBurstyOutcome is CanBootBursty plus how the query was answered;
// the boolean is bit-identical to the exact path in every case.
// Non-battery-free assemblies and dead boot drives decide closed-form
// and count as hits.
func (s *Surface) CanBootBurstyOutcome(chans []harvester.ChannelPower, occupancy []float64) (bool, Outcome) {
	if s.h.Version != harvester.BatteryFree {
		return true, OutcomeHit
	}
	condW, freq, droop, ok := s.h.BootDrive(chans, occupancy)
	if !ok {
		return false, OutcomeHit
	}
	v, fast := s.startupVoltage(condW, freq)
	threshold := s.h.Seiko.StartupV + droop
	if !fast {
		return s.h.StartupVoltage(condW, freq) >= threshold, OutcomeExact
	}
	if s.nearSeikoThreshold(v, threshold) {
		return s.h.StartupVoltage(condW, freq) >= threshold, OutcomeGuardBand
	}
	return v >= threshold, OutcomeHit
}

// startupVoltage mirrors Harvester.StartupVoltage with grid lookups.
func (s *Surface) startupVoltage(incidentW, freqHz float64) (float64, bool) {
	if incidentW <= 0 {
		return 0, true
	}
	acc := 0.8 * incidentW
	// The frequency is fixed for the whole fixed point; hoist its
	// constants once.
	xf, fast := s.xferFor(freqHz)
	hint := -1
	for i := 0; i < 8; i++ {
		rp, ok := interpRpAt(s.boot, acc, &hint)
		if !ok {
			return 0, false
		}
		var next float64
		if fast {
			next = incidentW * transferWith(&xf, rsiFromXp(rp, xf.xp))
		} else {
			z := s.h.RectifierSeriesImpedance(rp, freqHz)
			next = incidentW * s.h.Match.PowerTransferFraction(z, freqHz)
		}
		if math.Abs(next-acc) < 1e-12 {
			acc = next
			break
		}
		acc = 0.5*acc + 0.5*next
	}
	v, _, ok := interpVIAt(s.boot, acc, hint)
	return v, ok
}

// Evaluate returns the battery-free-style (rate-relevant) outputs of the
// chain under bursty drive: whether the chain boots and its net
// harvested power. It exists so callers outside core can exercise the
// exact contract the property tests certify.
func (s *Surface) Evaluate(chans []harvester.ChannelPower, occupancy []float64) (netW float64, boots bool) {
	if !s.CanBootBursty(chans, occupancy) {
		return 0, false
	}
	return s.BurstyOperating(chans, occupancy).HarvestedW, true
}

// EvaluateOutcome is the batch kernel's per-bin entry point: the boot
// check and (when it passes) the operating solve in one call, with both
// query outcomes reported for telemetry. The answers are produced by the
// exact same internal queries as CanBootBurstyOutcome followed by
// BurstyOperatingOutcome, so a loop over EvaluateOutcome is bit-identical
// to the two-call form bin for bin. opQueried reports whether the
// operating solve ran at all — a chain that cannot boot short-circuits
// with (0, false) and only the boot outcome is meaningful.
func (s *Surface) EvaluateOutcome(chans []harvester.ChannelPower, occupancy []float64) (netW float64, boots bool, bootOut, opOut Outcome, opQueried bool) {
	boots, bootOut = s.CanBootBurstyOutcome(chans, occupancy)
	if !boots {
		return 0, false, bootOut, OutcomeHit, false
	}
	op, opOut := s.BurstyOperatingOutcome(chans, occupancy)
	return op.HarvestedW, true, bootOut, opOut, true
}

package deploy

import (
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// CoarseCertifiedWindow is the shortest measurement window the coarse
// tier's ε is certified at (TestRunBatchCoarseCertification runs at
// it). The fleet engine refuses the coarse tier below it.
const CoarseCertifiedWindow = 10 * time.Millisecond

// CoarseOptions tunes the error-bounded coarse tier. The zero value
// selects the certified defaults; the certification suite in
// batch_test.go pins the contract for exactly these values, so callers
// that override them take on their own validation.
//
// The certified ε is tied to the measurement window: the occupancy
// proxy is a regression over event-simulated anchors, so its error
// floor is the anchors' own DCF measurement noise, which shrinks with
// the number of frames a window fits. The contract is certified at the
// fleet's default 10ms window, CoarseCertifiedWindow (per-home mean
// occupancy within 10%, banked harvest within 15%, population
// aggregates unbiased within 3%, boot/silence decisions bit-identical
// always). Very short windows (≲5ms) quantize occupancy coarsely
// enough that the per-home magnitude bounds do not hold, though the
// decision guarantee — which rests on the guard band, not the fit —
// still does; the fleet engine therefore refuses the coarse tier below
// CoarseCertifiedWindow.
type CoarseOptions struct {
	// Stride is the anchor spacing: every Stride-th bin (plus the final
	// bin) runs the full packet-level event simulation; the bins between
	// anchors are proxied unless escalated. Default 6.
	Stride int
	// Guard is the relative occupancy guard band of the escalation
	// check: a proxied bin is accepted only if the boot/silence decision
	// is unchanged when its proxied occupancy is scaled by (1-Guard) and
	// (1+Guard). Bins whose decision flips anywhere in that band — homes
	// near the boot threshold — escalate to the exact event simulation.
	// Default 0.5.
	Guard float64
}

func (c CoarseOptions) withDefaults() CoarseOptions {
	if c.Stride == 0 {
		c.Stride = 6
	}
	if c.Stride < 1 {
		c.Stride = 1
	}
	if c.Guard == 0 {
		c.Guard = 0.5
	}
	return c
}

// RunBatchCoarse is RunBatch on the coarse tier: the per-bin
// packet-level event simulation — the dominant cost of a fleet bin —
// runs only on anchor bins (every Stride-th plus the last), and the
// bins between anchors take a proxied occupancy fitted per channel to
// the anchors' exact offered loads. Only anchor (and escalated) bins
// pay the link-budget + rectifier-surface evaluation; a proxied bin's
// outputs come from two cheap closed forms instead:
//
//   - its boot/silence decision is the surrounding anchors' consensus,
//     accepted only after a single guard query confirms the verdict is
//     stable under a ±Guard relative occupancy swing (silence is
//     monotone in occupancy at the fixed link budget, so one query at
//     the adversarial end of the swing certifies the whole interval;
//     a per-home dominance frontier dedups queries across bins);
//   - its harvest magnitude comes from a least-squares fit of the
//     home's awake anchors (net harvested power against cumulative
//     occupancy), and its sensor rate from the sensor's closed-form
//     rate curve at that fitted power.
//
// The tier is error-bounded by the same discipline as the operating-
// point surface: decisions get a guard band, magnitudes get an
// empirical ε. Any proxied bin whose anchors disagree, whose guard
// query fails, or whose fitted rate contradicts the certified verdict
// escalates to the exact event simulation + surface evaluation. Homes
// far from the boot threshold — the vast majority at any given
// placement — therefore skip most of their event simulation, while
// marginal homes degrade toward the exact tier rather than toward
// wrong decisions. The certification suite asserts, across seeds and
// populations, that coarse silent-bin decisions are bit-identical to
// the exact tier's and aggregate magnitudes stay within the
// documented bound.
//
// each and the return value follow the RunBatch contract; each is
// called only for bins that are actually event-simulated.
func (smp *Sampler) RunBatchCoarse(cfg HomeConfig, opts Options, copts CoarseOptions, b *BinBatch, each func(bin int) bool) bool {
	opts = smp.begin(cfg, opts, b)
	copts = copts.withDefaults()
	nBins := b.Len()

	// Anchor pass: exact event simulation on the stride grid plus the
	// final bin, so every proxied bin has anchors on both sides.
	for bin := 0; bin < nBins; bin += copts.Stride {
		if !smp.simulate(b, bin, each) {
			return false
		}
	}
	if last := nBins - 1; last >= 0 && !b.Simulated[last] {
		if !smp.simulate(b, last, each) {
			return false
		}
	}

	// Proxy pass: estimate each skipped bin's occupancy from the home's
	// anchor set. The bin plan carries every bin's exact offered loads —
	// including their per-bin jitter draws — so the only thing being
	// approximated is the smooth load→occupancy response of the DCF
	// medium. Per channel, fit that response once per home by least
	// squares over all anchors (occupancy ≈ α + β·offered load; the
	// intercept absorbs the router's standing occupancy floor) and
	// predict skipped bins from their known loads. Pooling every anchor
	// into one fit averages down the per-window DCF measurement noise
	// that any two-anchor interpolation would inject verbatim, and the
	// load regressor tracks both the diurnal ramp and the per-bin jitter
	// that a pure time interpolation would smooth away. Offered load is
	// exact (not a noisy regressor), so the fit is unbiased under local
	// linearity. Occupancy is the only event-simulation output the
	// evaluate stage consumes, so this is the entire approximation.
	var alpha, beta [3]float64
	for c := 0; c < 3; c++ {
		var n, sx, sy, sxx, sxy float64
		for bin := 0; bin < nBins; bin++ {
			if !b.Simulated[bin] {
				continue
			}
			x := smp.coarseLoad(bin, c)
			y := b.Occupancy[bin][c]
			n++
			sx += x
			sy += y
			sxx += x * x
			sxy += x * y
		}
		if denom := n*sxx - sx*sx; denom > 1e-9 {
			beta[c] = (n*sxy - sx*sy) / denom
			alpha[c] = (sy - beta[c]*sx) / n
		} else {
			// Constant load across anchors: the response collapses to
			// the anchors' mean occupancy.
			beta[c] = 0
			alpha[c] = sy / n
		}
		smp.tr.OccFit(c, beta[c])
	}
	for bin := 0; bin < nBins; bin++ {
		if b.Simulated[bin] {
			continue
		}
		var occ [3]float64
		for c := range occ {
			o := alpha[c] + beta[c]*smp.coarseLoad(bin, c)
			if o < 0 {
				o = 0
			} else if o > 1 {
				o = 1
			}
			occ[c] = o
		}
		b.Occupancy[bin] = occ
	}

	// Cumulative occupancy is a pure fold of the occupancy vector; the
	// rectifier chain only enters for rate and harvest below.
	for bin := 0; bin < nBins; bin++ {
		cum := 0.0
		for _, v := range b.Occupancy[bin] {
			cum += v * 100
		}
		b.CumulativePct[bin] = cum
	}

	// Rate/harvest pass. Only the anchors go through the full surface
	// solve — two damped fixed points per query, the dominant non-event
	// cost of a coarse bin. Proxied bins take their decision from the
	// surrounding anchors (escalating on disagreement), certify it with
	// a guard-band query, and take their banked-harvest magnitude from a
	// least-squares fit of the anchors' net harvest against total
	// occupancy (incident energy is linear in per-channel airtime at a
	// fixed placement, so total occupancy is the natural regressor; the
	// update rate is a closed form of net harvest and needs no fit of
	// its own).
	for bin := 0; bin < nBins; bin++ {
		if b.Simulated[bin] {
			link := core.PoWiFiLinkOccupancy(opts.SensorDistanceFt, b.Occupancy[bin])
			b.SensorRate[bin], b.NetHarvestedW[bin] = smp.sensor.Evaluate(bin, link)
		}
	}
	var hn, hsx, hsy, hsxx, hsxy float64
	for bin := 0; bin < nBins; bin++ {
		// Silent anchors bank nothing by clamp, not by physics; only
		// awake anchors lie on the harvest response.
		if !b.Simulated[bin] || b.SensorRate[bin] <= 0 {
			continue
		}
		x := b.CumulativePct[bin]
		y := b.NetHarvestedW[bin]
		hn++
		hsx += x
		hsy += y
		hsxx += x * x
		hsxy += x * y
	}
	var hAlpha, hBeta float64
	if denom := hn*hsxx - hsx*hsx; denom > 1e-9 {
		hBeta = (hn*hsxy - hsx*hsy) / denom
		hAlpha = (hsy - hBeta*hsx) / hn
	} else if hn > 0 {
		hBeta = 0
		hAlpha = hsy / hn
	}
	smp.tr.HarvestFit(hBeta)

	// Decision + guard pass. The decision surface (SensorRate > 0) is
	// monotone in occupancy — more airtime is more incident energy — so
	// silence is downward-closed: scaling a bin's occupancy down can only
	// keep or create silence, scaling up can only keep or break it. Two
	// consequences the pass exploits:
	//
	//   - One guard query certifies the whole ±Guard band: a silent
	//     verdict must hold at (1+Guard) and a non-silent verdict at
	//     (1-Guard); the opposite end then follows by monotonicity.
	//   - Verdicts transfer between bins by componentwise domination: a
	//     bin whose occupancy dominates a known non-silent bin is
	//     non-silent without a query, and one dominated by a known silent
	//     bin is silent. The diurnal load ramp makes a home's bins
	//     near-totally ordered, so each home pays only a few frontier
	//     queries instead of one per proxied bin.
	//
	// Any bin whose anchors disagree, whose guard query contradicts the
	// anchor verdict, or whose fitted harvest contradicts the verdict's
	// sign escalates to the exact event simulation.
	esc := smp.escBuf[:0]
	var guardHi, guardLo frontier
	for bin := 0; bin < nBins; bin++ {
		if b.Simulated[bin] {
			continue
		}
		a0, a1 := smp.coarseAnchors(bin, nBins, copts.Stride)
		silent := b.SensorRate[a0] <= 0
		if (b.SensorRate[a1] <= 0) != silent {
			esc = append(esc, escalation{int32(bin), trace.EscConsensusSplit})
			smp.tr.Escalate(bin, trace.EscConsensusSplit)
			continue
		}
		occ := b.Occupancy[bin]
		var stable bool
		if silent {
			// Must stay silent even with Guard more airtime.
			switch guardHi.knows(occ) {
			case verdictSilent:
				stable = true
			case verdictAwake:
				stable = false
			default:
				stable = smp.silentAt(bin, opts, occ, 1+copts.Guard)
				guardHi.add(occ, stable)
				smp.tr.GuardQuery(bin, stable)
			}
		} else {
			// Must stay awake even with Guard less airtime.
			switch guardLo.knows(occ) {
			case verdictAwake:
				stable = true
			case verdictSilent:
				stable = false
			default:
				stable = !smp.silentAt(bin, opts, occ, 1-copts.Guard)
				guardLo.add(occ, !stable)
				smp.tr.GuardQuery(bin, stable)
			}
		}
		if !stable {
			esc = append(esc, escalation{int32(bin), trace.EscGuardDisagree})
			smp.tr.Escalate(bin, trace.EscGuardDisagree)
			continue
		}
		if silent {
			b.SensorRate[bin], b.NetHarvestedW[bin] = 0, 0
			continue
		}
		w := hAlpha + hBeta*b.CumulativePct[bin]
		rate := smp.sensor.Sensor.UpdateRate(w)
		if rate <= 0 {
			// The fit contradicts the certified verdict; trust neither.
			esc = append(esc, escalation{int32(bin), trace.EscOccFitUnstable})
			smp.tr.Escalate(bin, trace.EscOccFitUnstable)
			continue
		}
		b.SensorRate[bin], b.NetHarvestedW[bin] = rate, w
	}
	smp.escBuf = esc[:0]
	for _, e := range esc {
		bin := int(e.bin)
		if !smp.simulate(b, bin, each) {
			return false
		}
		link := core.PoWiFiLinkOccupancy(opts.SensorDistanceFt, b.Occupancy[bin])
		b.SensorRate[bin], b.NetHarvestedW[bin] = smp.sensor.Evaluate(bin, link)
		cum := 0.0
		for _, v := range b.Occupancy[bin] {
			cum += v * 100
		}
		b.CumulativePct[bin] = cum
	}
	return true
}

// verdict is a frontier lookup result.
type verdict uint8

const (
	verdictUnknown verdict = iota
	verdictSilent
	verdictAwake
)

// frontier caches guard-query verdicts at one occupancy scale and
// answers later queries by componentwise domination: silence is
// downward-closed in occupancy, so a vector below a silent one is
// silent and a vector above an awake one is awake. The slices stay a
// handful of entries long (one home's antichain), so linear scans beat
// any indexed structure.
type frontier struct {
	silent [][3]float64
	awake  [][3]float64
}

func domLE(a, b [3]float64) bool {
	return a[0] <= b[0] && a[1] <= b[1] && a[2] <= b[2]
}

func (f *frontier) knows(occ [3]float64) verdict {
	for _, s := range f.silent {
		if domLE(occ, s) {
			return verdictSilent
		}
	}
	for _, a := range f.awake {
		if domLE(a, occ) {
			return verdictAwake
		}
	}
	return verdictUnknown
}

func (f *frontier) add(occ [3]float64, silent bool) {
	if silent {
		f.silent = append(f.silent, occ)
	} else {
		f.awake = append(f.awake, occ)
	}
}

// coarseLoad returns the bin's total offered load on channel c: the
// planned neighbor load, plus the home's own client feed on channel 1
// (it rides the router's fair queue there).
func (smp *Sampler) coarseLoad(bin, c int) float64 {
	l := smp.plan.neighborLoad[bin][c]
	if c == 0 {
		l += smp.plan.clientLoad[bin]
	}
	return l
}

// coarseAnchors returns the simulated anchor bins surrounding a proxied
// bin on the stride grid: the anchor at or below it, and the next one
// above (clamped to the final bin, which is always simulated).
func (smp *Sampler) coarseAnchors(bin, nBins, stride int) (a0, a1 int) {
	a0 = bin - bin%stride
	a1 = a0 + stride
	if a1 > nBins-1 {
		a1 = nBins - 1
	}
	return a0, a1
}

// silentAt reports whether the sensor is silent (cannot boot, or nets
// nothing) at bin's occupancy occ scaled by f, each channel clamped to
// a full airtime share.
func (smp *Sampler) silentAt(bin int, opts Options, occ [3]float64, f float64) bool {
	for c := range occ {
		occ[c] *= f
		if occ[c] > 1 {
			occ[c] = 1
		}
	}
	rate, _ := smp.sensor.Evaluate(bin, core.PoWiFiLinkOccupancy(opts.SensorDistanceFt, occ))
	return rate <= 0
}

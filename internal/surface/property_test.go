package surface

import (
	"math"
	"testing"

	"repro/internal/harvester"
	"repro/internal/rf"
	"repro/internal/units"
	"repro/internal/xrand"
)

// Property suite: the ε guarantee the issue demands, checked end to end
// on randomized link budgets. The contract, as documented in DESIGN.md:
// |interp − exact| ≤ max(ε·|exact|, absolute floor), where the floors
// cover the quantities' zero crossings — the bq25570's net charge power
// crosses zero where harvest balances quiescent draw, and no relative
// bound is satisfiable at a crossing. The floors are picowatt-scale
// (signals of interest are microwatts): 2 pW of net power, and the
// corresponding 1 µHz of update rate.
const (
	netWFloor = 2e-12 // watts, absolute
	accFloor  = 1e-13 // watts, absolute (accepted power never crosses zero)
	rateFloor = 1e-6  // hertz, absolute
)

// randomBudget draws a bursty link budget the way the deployment and
// fleet layers produce them: a Friis link at a random distance with
// random per-channel occupancies (occasionally degenerate).
func randomBudget(rng *xrand.Rand) (chans []harvester.ChannelPower, occ []float64) {
	distM := units.FeetToMeters(rng.Uniform(1, 36))
	link := rf.Link{
		TxPowerDBm: rng.Uniform(20, 33),
		TxAntenna:  rf.Antenna{GainDBi: 6},
		RxAntenna:  rf.Antenna{GainDBi: 2},
		DistanceM:  distM,
	}
	for _, freq := range []float64{2.412e9, 2.437e9, 2.462e9} {
		if rng.Float64() < 0.1 {
			continue // channel idle in this bin
		}
		chans = append(chans, harvester.ChannelPower{FreqHz: freq, PowerW: link.ReceivedPowerW(freq)})
		o := rng.Float64()
		if rng.Float64() < 0.1 {
			o = 0 // occupied channel that happened to log zero airtime
		}
		occ = append(occ, o)
	}
	return chans, occ
}

func checkBudget(t *testing.T, h *harvester.Harvester, s *Surface, chans []harvester.ChannelPower, occ []float64) (worst float64) {
	t.Helper()
	eps := s.Epsilon()

	bootExact := h.CanBootBursty(chans, occ)
	bootSurf, _ := s.CanBootBursty(chans, occ)
	if bootExact != bootSurf {
		t.Errorf("%v: boot decision diverged (exact %v, surface %v) for %v/%v",
			h.Version, bootExact, bootSurf, chans, occ)
	}

	exact := h.BurstyOperating(chans, occ)
	surf, _ := s.BurstyOperating(chans, occ)
	// qNet/qAcc measure the error as a fraction of the allowed bound;
	// anything over 1 is a contract violation.
	qNet := math.Abs(surf.HarvestedW-exact.HarvestedW) / math.Max(eps*math.Abs(exact.HarvestedW), netWFloor)
	if qNet > 1 {
		t.Errorf("%v: net power error %.3g× the ε bound (exact %g, surface %g) for %v/%v",
			h.Version, qNet, exact.HarvestedW, surf.HarvestedW, chans, occ)
	}
	qAcc := math.Abs(surf.AcceptedW-exact.AcceptedW) / math.Max(eps*exact.AcceptedW, accFloor)
	if qAcc > 1 {
		t.Errorf("%v: accepted power error %.3g× the ε bound (exact %g, surface %g)",
			h.Version, qAcc, exact.AcceptedW, surf.AcceptedW)
	}
	return math.Max(qNet, qAcc)
}

// TestSurfaceMatchesExactOnRandomLinkBudgets is the headline property:
// randomized link budgets, battery-free and battery-recharging chains,
// |interp − exact| ≤ ε for net power (and the boot boolean identical —
// the guard band resolves threshold-adjacent queries exactly).
func TestSurfaceMatchesExactOnRandomLinkBudgets(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 12
	}
	for _, mk := range []func() *harvester.Harvester{harvester.NewBatteryFree, harvester.NewBatteryCharging} {
		h := mk()
		s := For(h)
		rng := xrand.NewFromLabel(7, "surface/property/"+h.Version.String())
		worst := 0.0
		for k := 0; k < n; k++ {
			chans, occ := randomBudget(rng)
			if w := checkBudget(t, h, s, chans, occ); w > worst {
				worst = w
			}
		}
		t.Logf("%v: worst error %.3g× the ε bound over %d budgets", h.Version, worst, n)
	}
}

// TestRateMatchesExact pins the sensor-facing contract on the full
// device chain quantity: rate = min(netW/readEnergy, cap) computed from
// both paths, the boot check gating the operating solve.
func TestRateMatchesExact(t *testing.T) {
	const readEnergyJ = 2.77e-6 // §5.1 per-read energy
	n := 40
	if testing.Short() {
		n = 8
	}
	h := harvester.NewBatteryFree()
	s := For(h)
	rng := xrand.NewFromLabel(11, "surface/rate")
	for k := 0; k < n; k++ {
		chans, occ := randomBudget(rng)
		var netS, netE float64
		bootS, _ := s.CanBootBursty(chans, occ)
		if bootS {
			op, _ := s.BurstyOperating(chans, occ)
			netS = op.HarvestedW
		}
		bootE := h.CanBootBursty(chans, occ)
		if bootE {
			netE = h.BurstyOperating(chans, occ).HarvestedW
		}
		if bootS != bootE {
			t.Fatalf("boot diverged: %v vs %v", bootS, bootE)
		}
		rateS := math.Min(math.Max(netS, 0)/readEnergyJ, 40)
		rateE := math.Min(math.Max(netE, 0)/readEnergyJ, 40)
		if err := math.Abs(rateS - rateE); err > math.Max(s.Epsilon()*rateE, rateFloor) {
			t.Errorf("rate error %g Hz (exact %g, surface %g)", err, rateE, rateS)
		}
	}
}

// TestGridMonotoneAndNoOvershoot pins the grid structure the issue
// names: strictly increasing abscissae, and interpolants that never
// leave the interval spanned by their bracketing node values (the
// monotone-cubic guarantee thresholding relies on).
func TestGridMonotoneAndNoOvershoot(t *testing.T) {
	s := For(harvester.NewBatteryFree())
	rng := xrand.NewFromLabel(13, "surface/monotone")
	for name, g := range map[string]*grid{"op": s.op, "boot": s.boot} {
		for i := 1; i < len(g.xs); i++ {
			if g.xs[i] <= g.xs[i-1] {
				t.Fatalf("%s: abscissae not strictly increasing at %d", name, i)
			}
		}
		// Voltage node values are non-decreasing: more accepted power
		// never lowers the rectifier output (allowing bisection noise).
		for i := 1; i < len(g.xs); i++ {
			if g.ys[curveV][i] < g.ys[curveV][i-1]-1e-9 {
				t.Errorf("%s: v grid not monotone at node %d: %g then %g",
					name, i, g.ys[curveV][i-1], g.ys[curveV][i])
			}
		}
		for k := 0; k < 2000; k++ {
			i := rng.Intn(len(g.xs) - 1)
			x := rng.Uniform(g.xs[i], g.xs[i+1])
			for c := range g.ys {
				got, ok := g.at(c, x)
				if !ok {
					t.Fatalf("%s: in-domain query rejected", name)
				}
				lo := math.Min(g.ys[c][i], g.ys[c][i+1])
				hi := math.Max(g.ys[c][i], g.ys[c][i+1])
				slack := 1e-12 * math.Max(math.Abs(lo), math.Abs(hi))
				if got < lo-slack || got > hi+slack {
					t.Errorf("%s curve %d: interpolant %g overshoots bracket [%g, %g] at x=%g",
						name, c, got, lo, hi, x)
				}
			}
		}
	}
}

// TestThresholdNeighborhoodExact pins the guard band: link budgets swept
// finely across the battery-free boot threshold must agree with the
// exact solver on every single boot decision (this is where a naive
// interpolation would flip marginal homes).
func TestThresholdNeighborhoodExact(t *testing.T) {
	h := harvester.NewBatteryFree()
	s := For(h)
	n := 120
	if testing.Short() {
		n = 24
	}
	// Sweep distance through the boot-range knee at fixed occupancy.
	for k := 0; k < n; k++ {
		distFt := 18 + 8*float64(k)/float64(n) // 18–26 ft straddles the knee
		link := rf.Link{
			TxPowerDBm: 30,
			TxAntenna:  rf.Antenna{GainDBi: 6},
			RxAntenna:  rf.Antenna{GainDBi: 2},
			DistanceM:  units.FeetToMeters(distFt),
		}
		var chans []harvester.ChannelPower
		for _, freq := range []float64{2.412e9, 2.437e9, 2.462e9} {
			chans = append(chans, harvester.ChannelPower{FreqHz: freq, PowerW: link.ReceivedPowerW(freq)})
		}
		occ := []float64{0.3, 0.3, 0.3}
		got, _ := s.CanBootBursty(chans, occ)
		if want := h.CanBootBursty(chans, occ); got != want {
			t.Errorf("boot decision flipped at %.2f ft: surface %v, exact %v", distFt, got, want)
		}
	}
}

// FuzzSurfaceMatchesExact drives checkBudget from fuzzed link budgets on
// both production harvesters, each input folded into randomBudget's
// ranges: 1–36 ft, 20–33 dBm, per-channel occupancy in [0, 1], and an
// idle mask that drops channels from the bin. Beyond the ε contract,
// any answer the surface did not serve from its grids is the exact
// solver's, bit for bit.
func FuzzSurfaceMatchesExact(f *testing.F) {
	f.Add(uint16(0), uint16(0), uint16(0), uint16(0), uint16(0), uint8(0))
	f.Add(uint16(8425), uint16(50412), uint16(58982), uint16(32768), uint16(45875), uint8(0))
	f.Add(uint16(39540), uint16(50412), uint16(19661), uint16(19661), uint16(19661), uint8(0)) // both guard bands
	f.Add(uint16(65535), uint16(65535), uint16(65535), uint16(0), uint16(65535), uint8(2))
	hs := []*harvester.Harvester{harvester.NewBatteryFree(), harvester.NewBatteryCharging()}
	f.Fuzz(func(t *testing.T, dist, tx, o1, o2, o3 uint16, idle uint8) {
		link := rf.Link{
			TxPowerDBm: 20 + 13*float64(tx)/math.MaxUint16,
			TxAntenna:  rf.Antenna{GainDBi: 6},
			RxAntenna:  rf.Antenna{GainDBi: 2},
			DistanceM:  units.FeetToMeters(1 + 35*float64(dist)/math.MaxUint16),
		}
		var chans []harvester.ChannelPower
		var occ []float64
		for i, freq := range []float64{2.412e9, 2.437e9, 2.462e9} {
			if idle&(1<<i) != 0 {
				continue
			}
			chans = append(chans, harvester.ChannelPower{FreqHz: freq, PowerW: link.ReceivedPowerW(freq)})
			occ = append(occ, float64([3]uint16{o1, o2, o3}[i])/math.MaxUint16)
		}
		for _, h := range hs {
			s := For(h)
			checkBudget(t, h, s, chans, occ)
			if boots, out := s.CanBootBursty(chans, occ); out != OutcomeHit {
				if want := h.CanBootBursty(chans, occ); boots != want {
					t.Errorf("%v: boot fallback (outcome %d) answered %v, exact %v for %v/%v", h.Version, out, boots, want, chans, occ)
				}
			}
			if op, out := s.BurstyOperating(chans, occ); out != OutcomeHit {
				if want := h.BurstyOperating(chans, occ); op != want {
					t.Errorf("%v: operating fallback (outcome %d) answered %+v, exact %+v for %v/%v", h.Version, out, op, want, chans, occ)
				}
			}
		}
	})
}

package rf

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"repro/internal/units"
	"repro/internal/xrand"
)

func TestInductorImpedanceLossless(t *testing.T) {
	// 6.8 nH at 2.45 GHz: X = 2π·f·L ≈ 104.7 Ω.
	z := InductorImpedance(6.8e-9, 2.45e9, 0)
	if real(z) != 0 {
		t.Errorf("lossless inductor has resistance %v", real(z))
	}
	if math.Abs(imag(z)-104.68) > 0.1 {
		t.Errorf("inductor reactance = %v, want about 104.7", imag(z))
	}
}

func TestInductorQAddsESR(t *testing.T) {
	z := InductorImpedance(6.8e-9, 2.45e9, 100)
	wantR := imag(z) / 100
	if math.Abs(real(z)-wantR) > 1e-9 {
		t.Errorf("ESR = %v, want X/Q = %v", real(z), wantR)
	}
}

func TestCapacitorImpedance(t *testing.T) {
	// 1.5 pF at 2.45 GHz: X = 1/(2π·f·C) ≈ 43.3 Ω (capacitive, negative).
	z := CapacitorImpedance(1.5e-12, 2.45e9, 0)
	if math.Abs(imag(z)+43.31) > 0.1 {
		t.Errorf("capacitor reactance = %v, want about -43.3", imag(z))
	}
}

func TestParallelEqualImpedances(t *testing.T) {
	z := Parallel(complex(100, 0), complex(100, 0))
	if cmplx.Abs(z-complex(50, 0)) > 1e-9 {
		t.Errorf("parallel of equal 100s = %v, want 50", z)
	}
}

func TestReflectionMatchedLoadIsZero(t *testing.T) {
	g := ReflectionCoefficient(complex(50, 0), 50)
	if cmplx.Abs(g) > 1e-12 {
		t.Errorf("matched load Γ = %v, want 0", g)
	}
}

func TestReflectionOpenAndShort(t *testing.T) {
	short := ReflectionCoefficient(complex(0, 0), 50)
	if cmplx.Abs(short+1) > 1e-12 {
		t.Errorf("short Γ = %v, want -1", short)
	}
	open := ReflectionCoefficient(complex(1e12, 0), 50)
	if cmplx.Abs(open-1) > 1e-6 {
		t.Errorf("open Γ = %v, want about +1", open)
	}
}

// Property: any passive load (non-negative resistance) has |Γ| <= 1, so
// return loss is <= 0 dB and the delivered-power fraction is in [0, 1].
func TestPassiveLoadGammaBounded(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		z := complex(r.Uniform(0, 5000), r.Uniform(-5000, 5000))
		g := cmplx.Abs(ReflectionCoefficient(z, 50))
		if g > 1+1e-9 {
			return false
		}
		frac := MismatchLossFraction(z, 50)
		return frac >= -1e-9 && frac <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestReturnLossMatchedIsVeryNegative(t *testing.T) {
	rl := ReturnLossDB(complex(50, 0), 50)
	if !math.IsInf(rl, -1) {
		t.Errorf("perfectly matched return loss = %v, want -Inf", rl)
	}
}

func TestFreeSpaceKnownValue(t *testing.T) {
	// At 2.437 GHz and 3.048 m (10 feet): PL = 20log10(4πd/λ) ≈ 49.9 dB.
	pl := freeSpaceLossDB(units.FeetToMeters(10), 2.437e9)
	if math.Abs(pl-49.87) > 0.1 {
		t.Errorf("free-space loss at 10 ft = %v, want about 49.9", pl)
	}
}

func TestFreeSpaceMonotoneInDistance(t *testing.T) {
	prev := -math.MaxFloat64
	for d := 0.1; d < 100; d *= 1.3 {
		pl := freeSpaceLossDB(d, 2.45e9)
		if pl < prev {
			t.Fatalf("path loss decreased with distance at %v m", d)
		}
		prev = pl
	}
}

func TestFreeSpaceNearFieldClamp(t *testing.T) {
	if freeSpaceLossDB(0.001, 2.45e9) != freeSpaceLossDB(0.05, 2.45e9) {
		t.Error("near-field distances should clamp to 5 cm")
	}
}

func TestWallOrdering(t *testing.T) {
	walls := []WallMaterial{NoWall, GlassDoublePane, WoodenDoor, HollowWall, DoubleSheetrock}
	prev := -1.0
	for _, w := range walls {
		a := w.AttenuationDB()
		if a <= prev {
			t.Errorf("wall %v attenuation %v not greater than previous %v", w, a, prev)
		}
		prev = a
	}
}

func TestWallStrings(t *testing.T) {
	if NoWall.String() != "Free Space" {
		t.Errorf("NoWall label = %q", NoWall.String())
	}
	if DoubleSheetrock.String() != `7.9" Wall` {
		t.Errorf("sheetrock label = %q", DoubleSheetrock.String())
	}
}

func TestLinkBudgetMatchesPaperSensitivityRange(t *testing.T) {
	// The PoWiFi router (30 dBm, 6 dBi) into the 2 dBi harvester antenna at
	// 20 feet should deliver roughly the battery-free harvester
	// sensitivity of -17.8 dBm (§4.2, Fig. 11).
	link := Link{
		TxPowerDBm: 30,
		TxAntenna:  Antenna{GainDBi: 6},
		RxAntenna:  Antenna{GainDBi: 2},
		DistanceM:  units.FeetToMeters(20),
	}
	got := link.ReceivedPowerDBm(2.437e9)
	if math.Abs(got-(-17.9)) > 0.5 {
		t.Errorf("received power at 20 ft = %v dBm, want about -17.9", got)
	}
}

func TestLinkWallReducesPower(t *testing.T) {
	base := Link{TxPowerDBm: 30, TxAntenna: Antenna{6}, RxAntenna: Antenna{2}, DistanceM: 1.5}
	walled := base
	walled.Wall = DoubleSheetrock
	diff := base.ReceivedPowerDBm(2.437e9) - walled.ReceivedPowerDBm(2.437e9)
	if math.Abs(diff-DoubleSheetrock.AttenuationDB()) > 1e-9 {
		t.Errorf("wall reduced power by %v, want %v", diff, DoubleSheetrock.AttenuationDB())
	}
}

func TestLinkWattsConsistent(t *testing.T) {
	l := Link{TxPowerDBm: 0, DistanceM: 1}
	dbm := l.ReceivedPowerDBm(2.45e9)
	w := l.ReceivedPowerW(2.45e9)
	if math.Abs(units.WattsToDBm(w)-dbm) > 1e-9 {
		t.Errorf("dBm/W mismatch: %v vs %v", dbm, units.WattsToDBm(w))
	}
}

func TestHighPassLSectionMatchesKilohmLoad(t *testing.T) {
	// The paper-architecture network (series C + the 6.8 nH shunt
	// inductor) matches the rectifier's kilohm-level parallel input
	// resistance down to 50 Ω somewhere in the 2.4 GHz band.
	n := HighPassLSection{SeriesC: 0.29e-12, ShuntL: 6.8e-9, InductorQ: 100}
	// A 1.5 kΩ ∥ 0.34 pF rectifier input in series form at 2.44 GHz.
	load := seriesEquivalent(1500, 0.34e-12, 2.44e9)
	best := 0.0
	for f := 2.40e9; f <= 2.48e9; f += 2e6 {
		if rl := n.ReturnLossDB(load, f); rl < best {
			best = rl
		}
	}
	if best > -12 {
		t.Errorf("best return loss = %.2f dB, want a real match (< -12)", best)
	}
}

// seriesEquivalent converts a parallel RC to its series impedance at f.
func seriesEquivalent(rp, c, f float64) Impedance {
	xp := 1 / (2 * math.Pi * f * c)
	q := rp / xp
	return complex(rp/(1+q*q), -xp*q*q/(1+q*q))
}

func TestHighPassPowerTransferBounds(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := HighPassLSection{
			SeriesC:   r.Uniform(0.1e-12, 2e-12),
			ShuntL:    r.Uniform(1e-9, 20e-9),
			InductorQ: 100,
		}
		load := complex(r.Uniform(1, 5000), r.Uniform(-3000, 1000))
		frac := n.PowerTransferFraction(load, r.Uniform(2.4e9, 2.5e9))
		return frac >= 0 && frac <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestHighPassInductorESRConsumesPower(t *testing.T) {
	// A lossy shunt inductor must deliver strictly less power to the load
	// than a lossless one.
	lossless := HighPassLSection{SeriesC: 0.29e-12, ShuntL: 6.8e-9}
	lossy := HighPassLSection{SeriesC: 0.29e-12, ShuntL: 6.8e-9, InductorQ: 20}
	load := seriesEquivalent(1500, 0.34e-12, 2.44e9)
	f := 2.44e9
	if lossy.PowerTransferFraction(load, f) >= lossless.PowerTransferFraction(load, f) {
		t.Error("inductor ESR should reduce delivered power")
	}
}

func TestParallelWithZeroSum(t *testing.T) {
	// Antiresonance: equal and opposite reactances in parallel.
	z := Parallel(complex(0, 100), complex(0, -100))
	if !math.IsInf(real(z), 1) {
		t.Errorf("parallel antiresonance = %v, want infinite", z)
	}
}

func TestMatchingNetworkInterfaces(t *testing.T) {
	// The network is passive: it presents a nonzero input impedance and
	// reflects no more power than is incident.
	n := HighPassLSection{SeriesC: 0.3e-12, ShuntL: 6.8e-9, InductorQ: 100}
	load := complex(100, -80)
	if z := n.InputImpedance(load, 2.44e9); z == 0 {
		t.Error("zero input impedance")
	}
	if rl := n.ReturnLossDB(load, 2.44e9); rl > 0 {
		t.Errorf("positive return loss %v for a passive network", rl)
	}
}

func TestWallStringUnknown(t *testing.T) {
	if s := WallMaterial(99).String(); s != "WallMaterial(99)" {
		t.Errorf("unknown wall label = %q", s)
	}
	if GlassDoublePane.String() != `1" Glass` || WoodenDoor.String() != `1.8" Wood` || HollowWall.String() != `5.4" Wall` {
		t.Error("wall labels drifted from the paper's Fig. 13 axis")
	}
}

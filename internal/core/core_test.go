package core

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/phy"
	"repro/internal/rf"
	"repro/internal/units"
	"repro/internal/xrand"
)

func TestPoWiFiLinkSplitsOccupancyEvenly(t *testing.T) {
	link := PoWiFiLink(10, 0.9)
	for _, chNum := range phy.PoWiFiChannels {
		occ := link.Occupancy[phy.PoWiFiChannelIndex(chNum)]
		if math.Abs(occ-0.3) > 1e-12 {
			t.Errorf("%v occupancy = %v, want 0.3", chNum, occ)
		}
	}
	// The map adapters round-trip the fixed array.
	if got := OccupancyFromMap(link.OccupancyMap()); got != link.Occupancy {
		t.Errorf("OccupancyFromMap(OccupancyMap()) = %v, want %v", got, link.Occupancy)
	}
}

func TestChannelPowersScaleWithOccupancy(t *testing.T) {
	full := PoWiFiLink(10, 0.9)
	half := PoWiFiLink(10, 0.45)
	pf := full.TotalIncidentW()
	ph := half.TotalIncidentW()
	if math.Abs(pf/ph-2) > 1e-9 {
		t.Errorf("incident power ratio = %v, want 2", pf/ph)
	}
}

func TestIncidentPowerMatchesLinkBudget(t *testing.T) {
	// At 20 ft with full occupancy: -17.9 dBm per channel, three channels.
	link := PoWiFiLink(20, 3.0) // occupancy 1.0 on each channel
	perChannel := units.DBmToWatts(-17.9)
	total := link.TotalIncidentW()
	if math.Abs(total-3*perChannel)/total > 0.05 {
		t.Errorf("total incident = %v, want about %v", total, 3*perChannel)
	}
}

func TestTotalIncidentDecreasesWithDistance(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		d := r.Uniform(2, 25)
		near := PoWiFiLink(d, 0.9).TotalIncidentW()
		far := PoWiFiLink(d+5, 0.9).TotalIncidentW()
		return far < near
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestWallReducesIncidentPower(t *testing.T) {
	plain := PoWiFiLink(5, 0.9)
	walled := PoWiFiLink(5, 0.9)
	walled.Wall = rf.DoubleSheetrock
	if walled.TotalIncidentW() >= plain.TotalIncidentW() {
		t.Error("wall did not attenuate")
	}
}

func TestTempSensorRangesMatchPaperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: range search sweeps hundreds of rectifier solves")
	}
	// Fig. 11: battery-free operates to about 20 ft, battery-recharging
	// to about 28 ft at 91.3% cumulative occupancy. Allow the simulator
	// a ±25% band while requiring the ordering.
	bf := NewBatteryFreeTempSensor()
	bc := NewRechargingTempSensor()
	const occ = 0.913
	rbf := OperatingRangeFt(40, func(d float64) bool { return bf.UpdateRate(PoWiFiLink(d, occ)) > 0 })
	rbc := OperatingRangeFt(40, func(d float64) bool { return bc.UpdateRate(PoWiFiLink(d, occ)) > 0 })
	if rbf < 15 || rbf > 25 {
		t.Errorf("battery-free range = %.1f ft, want near 20", rbf)
	}
	if rbc < 21 || rbc > 33 {
		t.Errorf("battery-recharging range = %.1f ft, want near 28", rbc)
	}
	if rbc <= rbf {
		t.Errorf("recharging range (%.1f) must exceed battery-free (%.1f)", rbc, rbf)
	}
}

func TestTempSensorRatesDecreaseWithDistance(t *testing.T) {
	bf := NewBatteryFreeTempSensor()
	prev := math.Inf(1)
	for d := 2.0; d <= 16; d += 2 {
		rate := bf.UpdateRate(PoWiFiLink(d, 0.913))
		if rate > prev+1e-9 {
			t.Fatalf("update rate increased at %v ft", d)
		}
		prev = rate
	}
}

// TestEvaluateSurfaceMatchesExactSolver pins the device-level wiring of
// the operating-point surface: Evaluate with Exact set must agree with
// the default (surface-served) path within the surface's certified ε,
// and make identical boot decisions, across both device versions and a
// sweep of distances and occupancies.
func TestEvaluateSurfaceMatchesExactSolver(t *testing.T) {
	const eps = 1e-6
	for _, mk := range []func() *TempSensorDevice{NewBatteryFreeTempSensor, NewRechargingTempSensor} {
		for _, d := range []float64{4, 8, 12, 17, 21, 24} {
			for _, occ := range []float64{0.2, 0.6, 1.1} {
				dev := mk()
				link := PoWiFiLink(d, occ)
				rate, net := dev.Evaluate(-1, link)
				dev.Exact = true
				rateE, netE := dev.Evaluate(-1, link)
				if (rate > 0) != (rateE > 0) {
					t.Fatalf("%v at %v ft occ %v: boot decisions diverged (surface %v, exact %v)",
						dev.Harvester.Version, d, occ, rate, rateE)
				}
				if math.Abs(net-netE) > math.Max(eps*math.Abs(netE), 2e-12) {
					t.Errorf("%v at %v ft occ %v: netW surface %g, exact %g",
						dev.Harvester.Version, d, occ, net, netE)
				}
				if math.Abs(rate-rateE) > math.Max(eps*rateE, 1e-6) {
					t.Errorf("%v at %v ft occ %v: rate surface %g, exact %g",
						dev.Harvester.Version, d, occ, rate, rateE)
				}
			}
		}
	}
}

func TestRechargingBeatsBatteryFreeBeyond15ft(t *testing.T) {
	// The Fig. 11 crossover: past 15 ft the battery-assisted harvester
	// (no cold-start, better sensitivity) wins.
	bf := NewBatteryFreeTempSensor()
	bc := NewRechargingTempSensor()
	link := PoWiFiLink(19, 0.913)
	if bc.UpdateRate(link) <= bf.UpdateRate(link) {
		t.Errorf("at 19 ft: recharging %.2f <= battery-free %.2f",
			bc.UpdateRate(link), bf.UpdateRate(link))
	}
}

func TestCameraRangesMatchPaperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: range search sweeps hundreds of rectifier solves")
	}
	// Fig. 12: battery-free to about 17 ft, recharging to about 23 ft.
	cbf := NewBatteryFreeCamera()
	cbc := NewRechargingCamera()
	const occ = 0.909
	rbf := OperatingRangeFt(40, func(d float64) bool { return cbf.NetHarvestedW(PoWiFiLink(d, occ)) > 0 })
	rbc := OperatingRangeFt(40, func(d float64) bool { return cbc.NetHarvestedW(PoWiFiLink(d, occ)) > 0 })
	if rbf < 14 || rbf > 21 {
		t.Errorf("battery-free camera range = %.1f ft, want near 17", rbf)
	}
	if rbc < 19 || rbc > 27 {
		t.Errorf("recharging camera range = %.1f ft, want near 23", rbc)
	}
	if rbc <= rbf {
		t.Error("recharging camera must out-range battery-free")
	}
}

func TestCameraInterFrameOrderOfMinutes(t *testing.T) {
	cam := NewBatteryFreeCamera()
	ift := cam.InterFrameTime(PoWiFiLink(10, 0.909))
	if ift < 2*time.Minute || ift > 90*time.Minute {
		t.Errorf("inter-frame at 10 ft = %v, want minutes-scale", ift)
	}
}

func TestThroughWallOrdering(t *testing.T) {
	// Fig. 13: more absorbing walls stretch the inter-frame time.
	cam := NewBatteryFreeCamera()
	walls := []rf.WallMaterial{rf.NoWall, rf.GlassDoublePane, rf.WoodenDoor, rf.HollowWall, rf.DoubleSheetrock}
	prev := time.Duration(0)
	for _, wall := range walls {
		link := PoWiFiLink(5, 0.909)
		link.Wall = wall
		ift := cam.InterFrameTime(link)
		if ift <= prev {
			t.Fatalf("inter-frame did not grow at %v", wall)
		}
		prev = ift
	}
}

func TestOperatingRangeFtEdges(t *testing.T) {
	if got := OperatingRangeFt(30, func(d float64) bool { return false }); got != 0 {
		t.Errorf("never-operating range = %v, want 0", got)
	}
	if got := OperatingRangeFt(30, func(d float64) bool { return true }); got < 29.5 {
		t.Errorf("always-operating range = %v, want max", got)
	}
	if got := OperatingRangeFt(30, func(d float64) bool { return d <= 12 }); math.Abs(got-12) > 0.3 {
		t.Errorf("threshold range = %v, want about 12", got)
	}
}

func TestBatteryChargeTime(t *testing.T) {
	b := NewRechargingTempSensor().Battery
	// Charging 10% of a 6480 J pack at 10 mW with 0.7 acceptance:
	// 648/0.7/0.010 = 92571 s.
	got := BatteryChargeTime(b, 0, 0.1, 10e-3)
	want := 648.0 / b.ChargeEff / 0.010
	if math.Abs(got.Seconds()-want) > 1 {
		t.Errorf("charge time = %v s, want %v", got.Seconds(), want)
	}
	if BatteryChargeTime(b, 0, 0.5, 0) < time.Duration(math.MaxInt64) {
		t.Error("zero net power must never charge")
	}
	if BatteryChargeTime(b, 0.5, 0.5, 1) < time.Duration(math.MaxInt64) {
		t.Error("equal SoCs should return infinity")
	}
}

func TestOutOfRangeLinkYieldsZero(t *testing.T) {
	bf := NewBatteryFreeTempSensor()
	if rate := bf.UpdateRate(PoWiFiLink(35, 0.913)); rate != 0 {
		t.Errorf("rate at 35 ft = %v, want 0", rate)
	}
	cam := NewBatteryFreeCamera()
	if net := cam.NetHarvestedW(PoWiFiLink(35, 0.909)); net > 0 {
		t.Errorf("camera net power at 35 ft = %v, want <= 0", net)
	}
}

func TestTransientSensorAgreesWithAnalyticRate(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: multi-second transient simulation")
	}
	// The stepped charge/release simulation and the analytic power-balance
	// model must agree on the update rate at steady state (within 2x: the
	// transient pays real boot and release overheads).
	link := PoWiFiLink(8, 0.913)
	res := SimulateBatteryFreeSensor(link, 3*time.Second, 7)
	analytic := NewBatteryFreeTempSensor().UpdateRate(link)
	if res.Reads == 0 {
		t.Fatal("transient sensor never fired at 8 ft")
	}
	ratio := res.Rate() / analytic
	if ratio < 0.4 || ratio > 2.5 {
		t.Errorf("transient rate %.2f/s vs analytic %.2f/s (ratio %.2f)", res.Rate(), analytic, ratio)
	}
	if res.PumpFraction <= 0 {
		t.Error("pump never ran")
	}
	if res.PeakNodeV < 0.3 {
		t.Errorf("rectifier node peaked at %v V, below the pump threshold", res.PeakNodeV)
	}
}

func TestTransientSensorSilentOutOfRange(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: transient simulation")
	}
	link := PoWiFiLink(30, 0.913)
	res := SimulateBatteryFreeSensor(link, time.Second, 7)
	if res.Reads != 0 {
		t.Errorf("sensor fired %d times at 30 ft; it must be out of range", res.Reads)
	}
}

func TestTransientSensorDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: two transient simulations")
	}
	link := PoWiFiLink(8, 0.913)
	a := SimulateBatteryFreeSensor(link, time.Second, 9)
	b := SimulateBatteryFreeSensor(link, time.Second, 9)
	if a.Reads != b.Reads || a.PeakNodeV != b.PeakNodeV {
		t.Errorf("identical seeds diverged: %d/%v vs %d/%v", a.Reads, a.PeakNodeV, b.Reads, b.PeakNodeV)
	}
}

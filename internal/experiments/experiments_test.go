package experiments

import (
	"bytes"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/harvester"
	"repro/internal/phy"
	"repro/internal/router"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig1", "fig5", "fig6a", "fig6b", "fig6c", "fig7", "fig8",
		"fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "table1",
		"ext-multirouter", "ext-pdos", "ext-multichannel"}
	ids := IDs()
	got := map[string]bool{}
	for _, id := range ids {
		got[id] = true
	}
	for _, id := range want {
		if !got[id] {
			t.Errorf("experiment %s not registered", id)
		}
		if Describe(id) == "" {
			t.Errorf("experiment %s has no description", id)
		}
	}
	if len(ids) != len(want) {
		t.Errorf("registry has %d entries, want %d", len(ids), len(want))
	}
}

func TestRunUnknownID(t *testing.T) {
	var buf bytes.Buffer
	if Run("nonsense", &buf, Config{Quick: true}) {
		t.Error("unknown experiment id should return false")
	}
}

func TestFig1NeverReachesThreshold(t *testing.T) {
	res := RunFig1(0.40, 4*time.Millisecond)
	if res.BootsWithin24h {
		t.Errorf("Fig. 1 scenario booted (peak %v V); the paper observed it never does", res.PeakV)
	}
	// The trace must show real swings (the paper's plot oscillates
	// between roughly 0.1 and 0.28 V).
	if res.PeakV < 0.12 {
		t.Errorf("peak voltage %v V too small; trace should visibly charge", res.PeakV)
	}
	if len(res.Trace) == 0 {
		t.Fatal("empty trace")
	}
}

func TestFig5ShapeMatchesPaper(t *testing.T) {
	res := RunFig5([]int{100, 400}, []int{1, 5}, 800*time.Millisecond, 5)
	occQ1At100 := res.OccupancyPct[0][0]
	occQ5At100 := res.OccupancyPct[1][0]
	occQ5At400 := res.OccupancyPct[1][1]
	// Threshold 1 loses occupancy versus threshold 5 (§3.2 design note).
	if occQ1At100 >= occQ5At100 {
		t.Errorf("qdepth=1 (%.1f%%) should lose to qdepth=5 (%.1f%%) at 100 µs",
			occQ1At100, occQ5At100)
	}
	// Longer delays lose occupancy once the delay exceeds the airtime.
	if occQ5At400 >= occQ5At100 {
		t.Errorf("occupancy at 400 µs (%.1f%%) should fall below 100 µs (%.1f%%)",
			occQ5At400, occQ5At100)
	}
}

func TestFig6aSchemeOrdering(t *testing.T) {
	res := RunFig6a([]float64{30}, 1500*time.Millisecond, 11)
	base := res.AchievedMbps[router.Baseline][0]
	powifi := res.AchievedMbps[router.PoWiFi][0]
	noq := res.AchievedMbps[router.NoQueue][0]
	blind := res.AchievedMbps[router.BlindUDP][0]
	if powifi < base*0.85 {
		t.Errorf("PoWiFi %.1f below 85%% of baseline %.1f", powifi, base)
	}
	if noq < base*0.3 || noq > base*0.8 {
		t.Errorf("NoQueue %.1f not roughly half of baseline %.1f", noq, base)
	}
	if blind > base*0.25 {
		t.Errorf("BlindUDP %.1f did not collapse (baseline %.1f)", blind, base)
	}
}

func TestFig6bSchemeOrdering(t *testing.T) {
	res := RunFig6b(2, 2*time.Second, 13)
	base := res.CDFs[router.Baseline].Quantile(0.5)
	powifi := res.CDFs[router.PoWiFi].Quantile(0.5)
	noq := res.CDFs[router.NoQueue].Quantile(0.5)
	blind := res.CDFs[router.BlindUDP].Quantile(0.5)
	if powifi < base*0.75 {
		t.Errorf("PoWiFi median TCP %.1f too far below baseline %.1f", powifi, base)
	}
	if noq >= base*0.85 {
		t.Errorf("NoQueue median %.1f should sit clearly below baseline %.1f", noq, base)
	}
	if blind >= noq {
		t.Errorf("BlindUDP median %.1f should be the worst (NoQueue %.1f)", blind, noq)
	}
}

func TestFig8FairnessOrdering(t *testing.T) {
	res := RunFig8([]phy.Rate{phy.Rate12Mbps, phy.Rate54Mbps}, time.Second, 23)
	for ri := range res.BitRates {
		blind := res.AchievedMbps[router.BlindUDP][ri]
		equal := res.AchievedMbps[router.EqualShare][ri]
		powifi := res.AchievedMbps[router.PoWiFi][ri]
		// PoWiFi gives the neighbor at least an equal share; BlindUDP
		// destroys it (Fig. 8).
		if powifi < equal*0.95 {
			t.Errorf("rate %v: PoWiFi %.2f below EqualShare %.2f", res.BitRates[ri], powifi, equal)
		}
		if blind > equal {
			t.Errorf("rate %v: BlindUDP %.2f above EqualShare %.2f", res.BitRates[ri], blind, equal)
		}
	}
	// The PoWiFi advantage is larger at low neighbor bit rates, where the
	// neighbor's frames are long compared to 54 Mbps power packets.
	gainLow := res.AchievedMbps[router.PoWiFi][0] / math.Max(res.AchievedMbps[router.EqualShare][0], 1e-9)
	gainHigh := res.AchievedMbps[router.PoWiFi][1] / math.Max(res.AchievedMbps[router.EqualShare][1], 1e-9)
	if gainLow < gainHigh {
		t.Errorf("PoWiFi/EqualShare gain should shrink with bit rate: low %.2f, high %.2f", gainLow, gainHigh)
	}
}

func TestFig9InBand(t *testing.T) {
	res := RunFig9(8e6)
	if worst := res.WorstInBand(res.BatteryFree); worst > -10 {
		t.Errorf("battery-free worst in-band return loss = %.2f dB, want < -10", worst)
	}
	if worst := res.WorstInBand(res.Charging); worst > -10 {
		t.Errorf("battery-charging worst in-band return loss = %.2f dB, want < -10", worst)
	}
}

func TestFig10SensitivityOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: full harvester output sweeps")
	}
	bf := RunFig10(harvester.BatteryFree, 6)
	bc := RunFig10(harvester.BatteryCharging, 6)
	if bc.SensitivityDBm >= bf.SensitivityDBm {
		t.Errorf("battery-charging sensitivity (%.1f) must beat battery-free (%.1f)",
			bc.SensitivityDBm, bf.SensitivityDBm)
	}
	// Output power grows monotonically with input on every channel.
	for _, res := range []*Fig10Result{bf, bc} {
		for chIdx := 0; chIdx < 3; chIdx++ {
			prev := -1.0
			for _, p := range res.Points {
				if p.OutputUW[chIdx] < prev-1e-9 {
					t.Fatalf("%v channel %d output decreased", res.Version, chIdx)
				}
				prev = p.OutputUW[chIdx]
			}
		}
	}
}

func TestFig11Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: range searches over the harvester model")
	}
	res := RunFig11([]float64{5, 10, 19, 25}, false)
	if res.BatteryFree[0] <= res.BatteryFree[1] {
		t.Error("battery-free rate should fall with distance")
	}
	// At 19 ft the battery-free sensor is near/past its limit while the
	// recharging one still runs.
	if res.Recharging[2] <= 0 {
		t.Error("recharging sensor should still run at 19 ft")
	}
	if res.BatteryFree[3] != 0 {
		t.Error("battery-free sensor cannot run at 25 ft")
	}
	if res.RechargingRangeFt <= res.BatteryFreeRangeFt {
		t.Error("recharging range must exceed battery-free range")
	}
}

func TestFig12Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: range searches over the harvester model")
	}
	res := RunFig12([]float64{5, 10, 15}, false)
	for i := 1; i < len(res.DistancesFt); i++ {
		if res.BatteryFree[i] <= res.BatteryFree[i-1] {
			t.Error("battery-free inter-frame time should grow with distance")
		}
	}
	if res.BatteryFreeRangeFt < 14 || res.BatteryFreeRangeFt > 21 {
		t.Errorf("battery-free camera range = %.1f ft, want near 17", res.BatteryFreeRangeFt)
	}
}

func TestFig13Ordering(t *testing.T) {
	res := RunFig13(false)
	// Free space fastest; double sheet-rock slowest.
	free := res.InterFrame[0]
	sheetrock := res.InterFrame[len(res.InterFrame)-1]
	if sheetrock <= free {
		t.Error("sheet-rock must slow the camera versus free space")
	}
	// All five scenarios still capture at 5 ft (the paper's plot shows
	// bars, not failures).
	for i, ift := range res.InterFrame {
		if ift > 10*time.Hour {
			t.Errorf("wall %v out of range at 5 ft", res.Walls[i])
		}
	}
}

func TestFig14CumulativeInBand(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: six 24-hour home deployments")
	}
	opts := deploy.Options{BinWidth: 2 * time.Hour, Window: 250 * time.Millisecond, Hours: 24, SensorDistanceFt: 10}
	res := RunFig14(opts)
	if len(res.Results) != 6 {
		t.Fatalf("homes = %d, want 6", len(res.Results))
	}
	for _, r := range res.Results {
		m := r.Log.Means().CumulativePct
		if m < 60 || m > 170 {
			t.Errorf("home %d mean cumulative = %.1f%%, outside sanity band", r.Home.ID, m)
		}
	}
}

func TestFig15RatesInBand(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: six 24-hour home deployments")
	}
	opts := deploy.Options{BinWidth: 2 * time.Hour, Window: 250 * time.Millisecond, Hours: 24, SensorDistanceFt: 10}
	res := RunFig15(RunFig14(opts))
	for i, c := range res.CDFs {
		if c.Quantile(0.5) <= 0 || c.Quantile(0.5) > 12 {
			t.Errorf("home %d median rate = %.2f, outside Fig. 15's plausible band", res.Homes[i], c.Quantile(0.5))
		}
	}
}

func TestTable1RoundTrip(t *testing.T) {
	var buf bytes.Buffer
	RunTable1().WriteTable(&buf)
	out := buf.String()
	for _, token := range []string{"Home #", "Users", "Devices", "Neighboring APs", "17", "24"} {
		if !strings.Contains(out, token) {
			t.Errorf("table output missing %q", token)
		}
	}
}

func TestFig16MatchesPaper(t *testing.T) {
	res := RunFig16(6, 150*time.Minute)
	if res.ChargeCurrentMA < 1.8 || res.ChargeCurrentMA > 2.8 {
		t.Errorf("charge current = %.2f mA, want about 2.3", res.ChargeCurrentMA)
	}
	if res.EndSoC < 0.30 || res.EndSoC > 0.50 {
		t.Errorf("final SoC = %.0f%%, want about 41%%", res.EndSoC*100)
	}
}

func TestExtMultiRouterConcurrencyWins(t *testing.T) {
	res := RunExtMultiRouter(time.Second, 31)
	// CSMA routers time-multiplex: little gain over one router.
	if res.CSMAUW > res.SingleUW*1.4 {
		t.Errorf("CSMA two-router power %.1f µW should barely exceed single %.1f", res.CSMAUW, res.SingleUW)
	}
	// Concurrent transmission (§8c) nearly doubles delivered power.
	if res.ConcurrentUW < res.SingleUW*1.7 {
		t.Errorf("concurrent power %.1f µW should approach 2x single %.1f", res.ConcurrentUW, res.SingleUW)
	}
}

func TestExtMultiChannelAblation(t *testing.T) {
	res := RunExtMultiChannel(12, 41, false)
	if res.SingleChRate <= 0 {
		t.Fatal("single-channel sensor silent at 12 ft")
	}
	if res.TriChRate < 2.2*res.SingleChRate {
		t.Errorf("tri-channel rate %.2f should be about 3x single-channel %.2f",
			res.TriChRate, res.SingleChRate)
	}
}

func TestExtPDoSStarvesSensor(t *testing.T) {
	res := RunExtPDoS(0.85, time.Second, 37, false)
	if res.AttackOccPct >= res.CleanOccPct {
		t.Error("attacker failed to reduce router occupancy")
	}
	if res.AttackRate >= res.CleanRate*0.8 {
		t.Errorf("attack reduced sensor rate only %.2f -> %.2f", res.CleanRate, res.AttackRate)
	}
}

func TestAllQuickRunnersProduceOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: runs eight experiment pipelines end to end")
	}
	// Smoke-run the cheap experiments end to end through the registry.
	for _, id := range []string{"fig1", "fig9", "fig10", "fig11", "fig12", "fig13", "fig16", "table1"} {
		var buf bytes.Buffer
		if !Run(id, &buf, Config{Quick: true}) {
			t.Fatalf("runner %s missing", id)
		}
		if buf.Len() == 0 {
			t.Errorf("runner %s produced no output", id)
		}
	}
}

// TestExactReachesSurfaceRunners pins that Config.Exact reaches every
// runner whose devices query the operating-point surface. The printed
// tables round the surface's ε away, so the runners' structured results
// are compared instead. Other than the solver, each run is deterministic:
// an exact result that differs from the surface result, but only within
// ε, shows the flag reached the devices; where the result carries its
// inputs, the exact values must also equal, bit for bit, those of devices
// built with Exact set.
func TestExactReachesSurfaceRunners(t *testing.T) {
	minutes := func(ds ...[]time.Duration) []float64 {
		var out []float64
		for _, d := range slices.Concat(ds...) {
			out = append(out, d.Minutes())
		}
		return out
	}
	exactSensors := func() []*core.TempSensorDevice {
		bf, bc := core.NewBatteryFreeTempSensor(), core.NewRechargingTempSensor()
		bf.Exact, bc.Exact = true, true
		return []*core.TempSensorDevice{bf, bc}
	}
	exactCameras := func() []*core.CameraDevice {
		bf, bc := core.NewBatteryFreeCamera(), core.NewRechargingCamera()
		bf.Exact, bc.Exact = true, true
		return []*core.CameraDevice{bf, bc}
	}
	cases := []struct {
		id   string
		slow bool
		// device extracts a result's device-derived values; exact
		// recomputes them on Exact devices (nil when the result does
		// not carry its inputs).
		device, exact func(Table) []float64
	}{
		{id: "fig11", slow: true,
			device: func(tb Table) []float64 {
				r := tb.(*Fig11Result)
				return slices.Concat(r.BatteryFree, r.Recharging)
			},
			exact: func(tb Table) []float64 {
				var out []float64
				for _, dev := range exactSensors() {
					for _, d := range tb.(*Fig11Result).DistancesFt {
						out = append(out, dev.UpdateRate(core.PoWiFiLink(d, 0.913)))
					}
				}
				return out
			}},
		{id: "fig12", slow: true,
			device: func(tb Table) []float64 {
				r := tb.(*Fig12Result)
				return minutes(r.BatteryFree, r.Recharging)
			},
			exact: func(tb Table) []float64 {
				var out []time.Duration
				for _, dev := range exactCameras() {
					for _, d := range tb.(*Fig12Result).DistancesFt {
						out = append(out, dev.InterFrameTime(core.PoWiFiLink(d, 0.909)))
					}
				}
				return minutes(out)
			}},
		{id: "fig13",
			device: func(tb Table) []float64 { return minutes(tb.(*Fig13Result).InterFrame) },
			exact: func(tb Table) []float64 {
				cam := exactCameras()[0]
				var out []time.Duration
				for _, wall := range tb.(*Fig13Result).Walls {
					link := core.PoWiFiLink(5, 0.909)
					link.Wall = wall
					out = append(out, cam.InterFrameTime(link))
				}
				return minutes(out)
			}},
		{id: "ext-multichannel",
			device: func(tb Table) []float64 {
				r := tb.(*MultiChannelAblation)
				return []float64{r.SingleChRate, r.TriChRate}
			}},
		{id: "ext-pdos",
			device: func(tb Table) []float64 {
				r := tb.(*PDoSResult)
				return []float64{r.CleanRate, r.AttackRate}
			}},
	}
	for _, c := range cases {
		t.Run(c.id, func(t *testing.T) {
			if c.slow {
				if testing.Short() {
					t.Skip("slow: exact range searches over the harvester model")
				}
				t.Parallel()
			}
			exact := registry[c.id].run(Config{Quick: true, Exact: true})
			surf := registry[c.id].run(Config{Quick: true})
			checkExact(t, c.device(exact), c.device(surf))
			if c.exact != nil && !reflect.DeepEqual(c.device(exact), c.exact(exact)) {
				t.Errorf("exact run %v, devices built with Exact %v", c.device(exact), c.exact(exact))
			}
		})
	}

	// fig14 prints only occupancy, so its runner stays on the surface
	// whatever Exact says; fig15 prints sensor rates and honours it.
	// Both run RunFig14. An exact run of the quick configuration takes
	// seconds per home, so the solver comparisons run RunFig14 at a
	// reduced scale.
	opts := deploy.Options{BinWidth: time.Hour, Window: 20 * time.Millisecond, Hours: 2, SensorDistanceFt: 10}
	surf := RunFig14(opts)
	opts.Exact = true
	exact := RunFig14(opts)
	t.Run("fig14", func(t *testing.T) {
		for i := range exact.Results {
			if !reflect.DeepEqual(exact.Results[i].Log.CumulativePct, surf.Results[i].Log.CumulativePct) {
				t.Errorf("home %d: occupancy depends on the solver", exact.Results[i].Home.ID)
			}
		}
		if testing.Short() {
			t.Skip("slow: two quick fig14 runs")
		}
		// Bit-identical sensor rates show the exact run never left the
		// surface.
		e := registry["fig14"].run(Config{Quick: true, Exact: true}).(*Fig14Result)
		s := registry["fig14"].run(Config{Quick: true}).(*Fig14Result)
		if !reflect.DeepEqual(e, s) {
			t.Error("fig14 with Exact differs from fig14 on the surface")
		}
	})
	t.Run("fig15", func(t *testing.T) {
		for _, exact := range []bool{false, true} {
			if got := deployOptions(Config{Quick: true, Exact: exact}).Exact; got != exact {
				t.Errorf("deployOptions(Exact: %v).Exact = %v", exact, got)
			}
		}
		var e, s []float64
		for i := range exact.Results {
			e = append(e, exact.Results[i].Log.SensorRate...)
			s = append(s, surf.Results[i].Log.SensorRate...)
		}
		checkExact(t, e, s)
	})
}

// checkExact asserts that exact and surface values agree within the
// surface's certified ε (the device-level tolerance of
// core.TestEvaluateSurfaceMatchesExactSolver), with identical boot
// decisions, and that they are not bit-identical: bit-identical values
// would mean the exact flag never reached the solver.
func checkExact(t *testing.T, exact, surf []float64) {
	t.Helper()
	if len(exact) != len(surf) || len(exact) == 0 {
		t.Fatalf("exact run has %d values, surface run %d", len(exact), len(surf))
	}
	same := true
	for i := range exact {
		if exact[i] != surf[i] {
			same = false
		}
		if (exact[i] > 0) != (surf[i] > 0) {
			t.Errorf("value %d: boot decisions diverged (exact %v, surface %v)", i, exact[i], surf[i])
		}
		if math.Abs(exact[i]-surf[i]) > math.Max(1e-6*math.Abs(exact[i]), 1e-6) {
			t.Errorf("value %d: exact %v, surface %v: beyond ε", i, exact[i], surf[i])
		}
	}
	if same {
		t.Errorf("exact and surface runs are bit-identical (%v): the exact flag did not reach the solver", exact)
	}
}

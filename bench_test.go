// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation. Each benchmark regenerates its experiment at a
// reduced-but-representative configuration; `go run ./cmd/powifi-bench
// -full <id>` reproduces the paper-scale version and prints the rows.
package powifi_test

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/harvester"
	"repro/internal/lifecycle"
	"repro/internal/phy"
	"repro/internal/stats"
	"repro/internal/trace"
)

// BenchmarkFig1RectifierTrace regenerates the §2/Fig. 1 rectifier-voltage
// trace under a conventional router's bursty traffic.
func BenchmarkFig1RectifierTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunFig1(0.40, 2*time.Millisecond)
		if res.BootsWithin24h {
			b.Fatal("Fig. 1 scenario must not boot")
		}
	}
}

// BenchmarkFig5OccupancyVsDelay regenerates one point of the Fig. 5
// injector parameter study.
func BenchmarkFig5OccupancyVsDelay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunFig5([]int{100}, []int{5}, 500*time.Millisecond, 5)
		if res.OccupancyPct[0][0] <= 0 {
			b.Fatal("no occupancy measured")
		}
	}
}

// BenchmarkFig6aUDPThroughput regenerates one column of the Fig. 6a UDP
// comparison (all four schemes at a 20 Mbps target).
func BenchmarkFig6aUDPThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.RunFig6a([]float64{20}, time.Second, 11)
	}
}

// BenchmarkFig6bTCPThroughput regenerates one run of the Fig. 6b TCP CDF
// comparison.
func BenchmarkFig6bTCPThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.RunFig6b(1, time.Second, 13)
	}
}

// BenchmarkFig6cPageLoadTime regenerates a single-load Fig. 6c PLT sweep
// over all ten sites and four schemes.
func BenchmarkFig6cPageLoadTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.RunFig6c(1, 17)
	}
}

// BenchmarkFig7OccupancyCDFs regenerates the Fig. 7 occupancy CDFs for
// the three workload types under PoWiFi.
func BenchmarkFig7OccupancyCDFs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.RunFig7Occupancies(time.Second, 11)
	}
}

// BenchmarkFig8NeighborFairness regenerates the Fig. 8 fairness study at
// two neighbor bit rates.
func BenchmarkFig8NeighborFairness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.RunFig8([]phy.Rate{phy.Rate6Mbps, phy.Rate54Mbps}, 500*time.Millisecond, 23)
	}
}

// BenchmarkFig9ReturnLoss regenerates the Fig. 9 S11 sweeps for both
// harvesters.
func BenchmarkFig9ReturnLoss(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunFig9(8e6)
		if res.WorstInBand(res.BatteryFree) > -10 {
			b.Fatal("battery-free harvester out of spec")
		}
	}
}

// BenchmarkFig10HarvesterOutput regenerates the Fig. 10 output-power
// sweeps for both harvesters.
func BenchmarkFig10HarvesterOutput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.RunFig10(harvester.BatteryFree, 6)
		experiments.RunFig10(harvester.BatteryCharging, 6)
	}
}

// BenchmarkFig11TempSensorRate regenerates the Fig. 11 update-rate-versus-
// distance curves, including the range searches.
func BenchmarkFig11TempSensorRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunFig11([]float64{5, 10, 15, 20, 25})
		if res.RechargingRangeFt <= res.BatteryFreeRangeFt {
			b.Fatal("range ordering violated")
		}
	}
}

// BenchmarkFig12CameraInterFrame regenerates the Fig. 12 camera curves.
func BenchmarkFig12CameraInterFrame(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.RunFig12([]float64{5, 10, 15, 17})
	}
}

// BenchmarkFig13ThroughWall regenerates the Fig. 13 through-the-wall
// sweep.
func BenchmarkFig13ThroughWall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunFig13()
		if res.InterFrame[len(res.InterFrame)-1] <= res.InterFrame[0] {
			b.Fatal("wall ordering violated")
		}
	}
}

// BenchmarkFig14HomeOccupancy regenerates a coarse-grained version of one
// home's 24-hour occupancy log.
func BenchmarkFig14HomeOccupancy(b *testing.B) {
	opts := deploy.Options{
		BinWidth: 2 * time.Hour, Window: 250 * time.Millisecond,
		Hours: 24, SensorDistanceFt: 10,
	}
	for i := 0; i < b.N; i++ {
		res := deploy.Run(deploy.PaperHomes()[1], opts)
		if res.MeanCumulative() <= 0 {
			b.Fatal("no occupancy logged")
		}
	}
}

// BenchmarkFig15HomeSensorCDF regenerates one home's sensor-rate CDF.
func BenchmarkFig15HomeSensorCDF(b *testing.B) {
	opts := deploy.Options{
		BinWidth: 2 * time.Hour, Window: 250 * time.Millisecond,
		Hours: 24, SensorDistanceFt: 10,
	}
	for i := 0; i < b.N; i++ {
		res := deploy.Run(deploy.PaperHomes()[2], opts)
		cdf := stats.NewCDF(res.SensorRates)
		if cdf.Quantile(0.5) <= 0 {
			b.Fatal("sensor silent in deployment")
		}
	}
}

// BenchmarkTable1HomeSummary regenerates the Table 1 roster.
func BenchmarkTable1HomeSummary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunTable1()
		if len(res.Homes) != 6 {
			b.Fatal("wrong home count")
		}
	}
}

// BenchmarkEvaluateExact measures the direct per-bin rectifier solve
// (cold-start check plus bursty operating point via the Bessel/Newton
// path) that dominated deployment and fleet runs before the
// operating-point surface.
func BenchmarkEvaluateExact(b *testing.B) {
	sensor := core.NewBatteryFreeTempSensor()
	sensor.Exact = true
	link := core.PoWiFiLink(10, 1.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rate, _ := sensor.Evaluate(-1, link); rate <= 0 {
			b.Fatal("sensor silent at 10 ft")
		}
	}
}

// BenchmarkEvaluateSurface measures the same solve served from the
// error-bounded operating-point surface (internal/surface). The surface
// build happens once before the timer; the steady-state cost is what
// every fleet bin pays.
func BenchmarkEvaluateSurface(b *testing.B) {
	sensor := core.NewBatteryFreeTempSensor()
	link := core.PoWiFiLink(10, 1.2)
	sensor.Evaluate(-1, link) // warm the shared surface
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rate, _ := sensor.Evaluate(-1, link); rate <= 0 {
			b.Fatal("sensor silent at 10 ft")
		}
	}
}

// fleetBenchConfig is the shared fleet benchmark workload: 16 homes × 4
// bins, small enough to iterate, large enough to exercise synthesis,
// sharding and reduction.
func fleetBenchConfig(workers int, exact bool) fleet.Config {
	return fleet.Config{
		Homes:    16,
		Seed:     42,
		Workers:  workers,
		Hours:    2,
		BinWidth: 30 * time.Minute,
		Window:   2 * time.Millisecond,
		Exact:    exact,
	}
}

func runFleetBench(b *testing.B, cfg fleet.Config) {
	b.Helper()
	// Build the shared surface (and warm caches) outside the timer.
	if _, err := fleet.Run(context.Background(), cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := fleet.Run(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.TotalBins == 0 {
			b.Fatal("fleet logged no bins")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cfg.Homes), "ns/home")
}

// skipBeyondProcs skips a worker-scaling row the host cannot run in
// parallel: with more workers than GOMAXPROCS the row measures time
// slicing, not scaling.
func skipBeyondProcs(b *testing.B, workers int) {
	if procs := runtime.GOMAXPROCS(0); workers > procs {
		b.Skipf("workers=%d exceeds GOMAXPROCS=%d: the row would measure time slicing, not scaling", workers, procs)
	}
}

// BenchmarkFleet runs a small fleet at several worker counts on the
// default (surface) path. The homes are independent discrete-event
// simulations, so on multicore hardware the sharded path should approach
// linear speedup over workers=1 (the serial path); results are
// bit-for-bit identical either way.
func BenchmarkFleet(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			skipBeyondProcs(b, workers)
			runFleetBench(b, fleetBenchConfig(workers, false))
		})
	}
}

// BenchmarkFleetExact is the same fleet with the operating-point surface
// bypassed: every bin pays the full Bessel/Newton solve. Comparing its
// ns/home against BenchmarkFleet's quantifies what the surface buys.
func BenchmarkFleetExact(b *testing.B) {
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			skipBeyondProcs(b, workers)
			runFleetBench(b, fleetBenchConfig(workers, true))
		})
	}
}

// sweepBenchConfig is the sweep workload shape: a full 24-bin day per
// home at the fleet default 10 ms sampling window, the configuration
// the coarse tier is certified for. Its per-home cost does not depend
// on Homes, so a small fleet measures it.
func sweepBenchConfig(homes int, coarse bool) fleet.Config {
	return fleet.Config{
		Homes:    homes,
		Seed:     42,
		Workers:  1,
		Hours:    24,
		BinWidth: time.Hour,
		Window:   10 * time.Millisecond,
		Coarse:   coarse,
	}
}

// BenchmarkFleetSweep measures the exact tier on the sweep workload;
// BenchmarkFleetSweepCoarse is the same sweep on the error-bounded
// coarse tier (anchor-only event simulation, consensus decisions,
// fitted magnitudes). Their ratio is the coarse tier's certified-ε
// speedup.
func BenchmarkFleetSweep(b *testing.B) {
	runFleetBench(b, sweepBenchConfig(200, false))
}

func BenchmarkFleetSweepCoarse(b *testing.B) {
	runFleetBench(b, sweepBenchConfig(200, true))
}

// lifecycleAllocBudgetPerBin is the acceptance ceiling for steady-state
// heap allocations per lifecycle-mode bin: twice the sampler's 10
// allocs/bin budget, covering the packet sample plus the archetype
// chain's per-bin operating-point evaluation.
const lifecycleAllocBudgetPerBin = 20.0

// lifecycleBenchConfig is the shared lifecycle benchmark workload: the
// standard 16-home fleet with a mixed device population spanning every
// archetype.
func lifecycleBenchConfig(workers int) fleet.Config {
	cfg := fleetBenchConfig(workers, false)
	cfg.Population = fleet.DefaultPopulation()
	var m lifecycle.Mix
	m[lifecycle.TempSensor] = 0.3
	m[lifecycle.RechargingTemp] = 0.15
	m[lifecycle.Camera] = 0.2
	m[lifecycle.Jawbone] = 0.15
	m[lifecycle.LiIon] = 0.1
	m[lifecycle.NiMH] = 0.1
	cfg.Population.Devices = m
	return cfg
}

// BenchmarkLifecycleFleet runs the mixed-device fleet at several worker
// counts, reporting ns/home and allocs/home. Comparing against
// BenchmarkFleet quantifies what the stateful lifecycle engine adds on
// top of the classic aggregates-only run.
func BenchmarkLifecycleFleet(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			skipBeyondProcs(b, workers)
			b.ReportAllocs() // with ns/home: divide allocs/op by the 16 homes for allocs/home
			runFleetBench(b, lifecycleBenchConfig(workers))
		})
	}
}

// TestLifecycleFleetAllocBudget pins the lifecycle fleet's allocation
// bound: a steady-state mixed-device fleet stays within twice the
// sampler's per-bin allocation budget (per-run setup — the result's
// sketches — amortizes over the bins and is covered by the budget's
// slack).
func TestLifecycleFleetAllocBudget(t *testing.T) {
	cfg := lifecycleBenchConfig(1)
	res, err := fleet.Run(context.Background(), cfg) // warm pools and surfaces
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := fleet.Run(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
	})
	perBin := allocs / float64(res.TotalBins)
	if perBin > lifecycleAllocBudgetPerBin {
		t.Errorf("lifecycle fleet allocs/bin = %.2f exceeds the %.0f budget (2x the sampler's)",
			perBin, lifecycleAllocBudgetPerBin)
	}
	t.Logf("lifecycle fleet allocs/bin = %.2f over %d bins (budget %.0f)", perBin, res.TotalBins, lifecycleAllocBudgetPerBin)
}

// pairRatio times num and den in alternating pairs (num then den, then
// den then num), so a drift in host speed weighs on both sides alike,
// and returns the median of the per-pair ratios num/den. Each side runs
// once untimed first to build the shared surface and warm the pools.
func pairRatio(pairs int, num, den func()) float64 {
	num()
	den()
	timed := func(f func()) float64 {
		start := time.Now()
		f()
		return float64(time.Since(start))
	}
	ratios := make([]float64, pairs)
	for i := range ratios {
		var n, d float64
		if i%2 == 0 {
			n = timed(num)
			d = timed(den)
		} else {
			d = timed(den)
			n = timed(num)
		}
		ratios[i] = n / d
	}
	slices.Sort(ratios)
	return ratios[pairs/2]
}

// TestSpeedRatios holds the three same-process speed gates, each a
// per-home ratio between two runs of the same fleet:
//
//   - surface: the exact Bessel/Newton solve against the operating-point
//     surface, at least 5×;
//   - coarse: the exact tier against the coarse tier on the sweep shape,
//     at least 2.5×, the tier's speedup with its anchor simulations;
//   - trace: tracing on against tracing off on the sweep shape, at most
//     1.05×. Four homes per run keep the recorder's fixed per-run cost
//     in the ratio, and the many cheap pairs keep the median steady.
//
// Both sides of a ratio run in this process on this host, so no
// baseline is carried over from another run.
func TestSpeedRatios(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate: skipped under -short")
	}
	run := func(t *testing.T, cfg fleet.Config) func() {
		return func() {
			if _, err := fleet.Run(context.Background(), cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Run("surface", func(t *testing.T) {
		cfg := fleetBenchConfig(1, false)
		cfg.Homes = 2
		exact := cfg
		exact.Exact = true
		r := pairRatio(3, run(t, exact), run(t, cfg))
		t.Logf("exact/surface = %.0f× per home", r)
		if r < 5 {
			t.Errorf("surface per-home speedup %.1f× is below the 5× bar", r)
		}
	})
	t.Run("coarse", func(t *testing.T) {
		r := pairRatio(9, run(t, sweepBenchConfig(50, false)), run(t, sweepBenchConfig(50, true)))
		t.Logf("exact/coarse = %.2f× per home", r)
		if r < 2.5 {
			t.Errorf("coarse per-home speedup %.2f× is below the 2.5× floor", r)
		}
	})
	t.Run("trace", func(t *testing.T) {
		cfg := sweepBenchConfig(4, false)
		traced := func() {
			rec := trace.NewRecorder()
			if _, err := fleet.RunWith(context.Background(), cfg, fleet.Hooks{Trace: rec}); err != nil {
				t.Fatal(err)
			}
			if got := rec.Summary().HomesTraced; got != cfg.Homes {
				t.Fatalf("traced %d homes, want %d", got, cfg.Homes)
			}
		}
		r := pairRatio(301, traced, run(t, cfg))
		t.Logf("traced/untraced = %.3f× per home", r)
		if r > 1.05 {
			t.Errorf("tracing overhead %.3f× exceeds the 1.05× budget", r)
		}
	})
}

// BenchmarkFig16USBCharger regenerates the §8(a) Jawbone charging run.
func BenchmarkFig16USBCharger(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunFig16(6, 150*time.Minute)
		if res.EndSoC <= res.StartSoC {
			b.Fatal("battery did not charge")
		}
	}
}

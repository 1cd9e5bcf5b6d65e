package powifi_test

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/fleet"
	"repro/internal/lifecycle"
)

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

// lifecycleBinsPerHome returns the per-home bin count of the benchmark
// workload, derived from the same snapping the runner uses.
func lifecycleBinsPerHome(cfg fleet.Config) int {
	return int(cfg.Hours * float64(3600) / cfg.BinWidth.Seconds())
}

// BenchmarkLifecycleFleet runs the mixed-device fleet at several worker
// counts, reporting ns/home and allocs/home. Comparing against
// BenchmarkFleet quantifies what the stateful lifecycle engine adds on
// top of the classic aggregates-only run.
func BenchmarkLifecycleFleet(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs() // with ns/home: divide allocs/op by the 16 homes for allocs/home
			runFleetBench(b, lifecycleBenchConfig(workers))
		})
	}
}

// TestLifecycleFleetAllocBudget pins the tentpole's allocation
// acceptance bound without needing the bench environment: a
// steady-state mixed-device fleet home stays within twice the
// sampler's per-bin allocation budget (per-run setup — the result's
// sketches — amortizes over the homes and is covered by the budget's
// slack).
func TestLifecycleFleetAllocBudget(t *testing.T) {
	cfg := lifecycleBenchConfig(1)
	if _, err := fleet.Run(context.Background(), cfg); err != nil { // warm pools and surfaces
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := fleet.Run(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
	})
	perHome := allocs / float64(cfg.Homes)
	budget := lifecycleAllocBudgetPerBin * float64(lifecycleBinsPerHome(cfg))
	if perHome > budget {
		t.Errorf("lifecycle fleet allocs/home = %.1f exceeds the %.0f budget (2x sampler budget x %d bins)",
			perHome, budget, lifecycleBinsPerHome(cfg))
	}
	t.Logf("lifecycle fleet allocs/home = %.1f (budget %.0f)", perHome, budget)
}

// TestEmitLifecycleBenchJSON emits BENCH_lifecycle.json when
// POWIFI_BENCH_JSON is set (the CI bench-smoke job sets it): the mixed
// lifecycle fleet's ns/home and allocs/home next to the classic
// fleet's, and the allocation budget the acceptance criteria bound.
func TestEmitLifecycleBenchJSON(t *testing.T) {
	if os.Getenv("POWIFI_BENCH_JSON") == "" {
		t.Skip("set POWIFI_BENCH_JSON=1 to emit BENCH_lifecycle.json")
	}

	cfg := lifecycleBenchConfig(1)
	bins := lifecycleBinsPerHome(cfg)
	lr := testing.Benchmark(func(b *testing.B) { runFleetBench(b, cfg) })
	lifeNsPerHome := float64(lr.NsPerOp()) / float64(cfg.Homes)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := fleet.Run(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
	})
	allocsPerHome := allocs / float64(cfg.Homes)
	allocsPerBin := allocsPerHome / float64(bins)

	classic := fleetBenchConfig(1, false)
	cr := testing.Benchmark(func(b *testing.B) { runFleetBench(b, classic) })
	classicNsPerHome := float64(cr.NsPerOp()) / float64(classic.Homes)

	rep := struct {
		GOOS              string  `json:"goos"`
		GOARCH            string  `json:"goarch"`
		GOMAXPROCS        int     `json:"gomaxprocs"`
		NsPerHome         float64 `json:"lifecycle_ns_per_home"`
		ClassicNsPerHome  float64 `json:"classic_ns_per_home"`
		OverheadFraction  float64 `json:"lifecycle_overhead_fraction"`
		AllocsPerHome     float64 `json:"lifecycle_allocs_per_home"`
		AllocsPerBin      float64 `json:"lifecycle_allocs_per_bin"`
		AllocBudgetPerBin float64 `json:"alloc_budget_per_bin"`
		Devices           string  `json:"devices"`
		BenchConfig       string  `json:"bench_config"`
	}{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, GOMAXPROCS: runtime.GOMAXPROCS(0),
		NsPerHome: lifeNsPerHome, ClassicNsPerHome: classicNsPerHome,
		OverheadFraction: lifeNsPerHome/classicNsPerHome - 1,
		AllocsPerHome:    allocsPerHome, AllocsPerBin: allocsPerBin,
		AllocBudgetPerBin: lifecycleAllocBudgetPerBin,
		Devices:           cfg.Population.Devices.String(),
		BenchConfig:       fmt.Sprintf("%d homes x %d bins, window %v", cfg.Homes, bins, cfg.Window),
	}

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_lifecycle.json", append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("BENCH_lifecycle.json: %.0f ns/home lifecycle vs %.0f classic (%.1f%% overhead), %.2f allocs/bin",
		lifeNsPerHome, classicNsPerHome, 100*rep.OverheadFraction, allocsPerBin)

	if allocsPerBin > lifecycleAllocBudgetPerBin {
		t.Errorf("lifecycle allocs/bin %.2f exceeds the %.0f budget", allocsPerBin, lifecycleAllocBudgetPerBin)
	}
}

package powifi_test

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/deploy"
)

// pr2BaselineNsPerHome is BenchmarkFleet/workers=1 ns/home measured on
// the PR 2 tree (commit 6ab1359), the baseline the zero-allocation
// sampler PR is judged against. Methodology: eight interleaved
// PR2/current runs on the same otherwise-idle single-core dev host,
// mean of the PR 2 samples (individual samples 142-155 µs/home). The
// same interleaved protocol put the current tree at 49-53 µs/home,
// a 2.8-3.0× per-home speedup with ~1 steady-state alloc/bin (PR 2:
// ~395 allocs/bin).
const pr2BaselineNsPerHome = 147520.0

// samplerAllocBudget is the acceptance ceiling for steady-state heap
// allocations per sampled bin.
const samplerAllocBudget = 10.0

// samplerSpeedupFloor is the CI regression gate on the per-home
// speedup vs the PR 2 baseline. The engineering target is 3×; the gate
// sits below it because the baseline constant was measured on a
// different host than CI and single-core runners see ±10% scheduler
// noise, which would make a hard 3.0 assertion flaky.
const samplerSpeedupFloor = 2.5

// TestEmitSamplerBenchJSON emits BENCH_sampler.json when
// POWIFI_BENCH_JSON is set (the CI bench-smoke job sets it): the pooled
// sampler's ns/bin and allocs/bin at the fleet benchmark's window, the
// fleet's current ns/home, and the speedup against the recorded PR 2
// baseline.
func TestEmitSamplerBenchJSON(t *testing.T) {
	if os.Getenv("POWIFI_BENCH_JSON") == "" {
		t.Skip("set POWIFI_BENCH_JSON=1 to emit BENCH_sampler.json")
	}

	// Pooled per-bin cost (packet sample + sensor solve) at the fleet
	// benchmark's 2 ms window, measured over a Table 1 home run into a
	// reused batch.
	smp := deploy.NewSampler()
	opts := deploy.Options{BinWidth: time.Hour, Window: 2 * time.Millisecond, Hours: 24, SensorDistanceFt: 10}
	home := deploy.PaperHomes()[2]
	nBins := opts.NumBins()
	var batch deploy.BinBatch
	smp.RunBatch(home, opts, &batch, nil) // warm pools, the batch and the shared surface

	br := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			smp.RunBatch(home, opts, &batch, nil)
		}
	})
	nsPerBin := float64(br.NsPerOp()) / float64(nBins)
	allocsPerBin := testing.AllocsPerRun(20, func() {
		smp.RunBatch(home, opts, &batch, nil)
	}) / float64(nBins)

	// Fleet per-home cost on the standard benchmark workload.
	cfg := fleetBenchConfig(1, false)
	fr := testing.Benchmark(func(b *testing.B) { runFleetBench(b, cfg) })
	nsPerHome := float64(fr.NsPerOp()) / float64(cfg.Homes)
	speedup := pr2BaselineNsPerHome / nsPerHome

	rep := struct {
		GOOS             string  `json:"goos"`
		GOARCH           string  `json:"goarch"`
		GOMAXPROCS       int     `json:"gomaxprocs"`
		NsPerBin         float64 `json:"sampler_ns_per_bin"`
		AllocsPerBin     float64 `json:"sampler_allocs_per_bin"`
		AllocBudget      float64 `json:"sampler_alloc_budget_per_bin"`
		FleetNsPerHome   float64 `json:"fleet_ns_per_home"`
		PR2NsPerHome     float64 `json:"pr2_baseline_ns_per_home"`
		SpeedupPerHome   float64 `json:"speedup_per_home_vs_pr2"`
		SpeedupTarget    float64 `json:"speedup_target"`
		Line             string  `json:"line"`
		BaselineNote     string  `json:"baseline_note"`
		SamplerWindow    string  `json:"sampler_window"`
		FleetBenchConfig string  `json:"fleet_bench_config"`
	}{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, GOMAXPROCS: runtime.GOMAXPROCS(0),
		NsPerBin: nsPerBin, AllocsPerBin: allocsPerBin, AllocBudget: samplerAllocBudget,
		FleetNsPerHome: nsPerHome, PR2NsPerHome: pr2BaselineNsPerHome, SpeedupPerHome: speedup,
		SpeedupTarget: 3,
		Line: fmt.Sprintf("BenchmarkFleet/workers=1-%d %d %d ns/op",
			runtime.GOMAXPROCS(0), fr.N, fr.NsPerOp()),
		BaselineNote: "PR 2 baseline measured via interleaved runs on the development host; " +
			"see pr2BaselineNsPerHome in bench_sampler_test.go for methodology",
		SamplerWindow:    opts.Window.String(),
		FleetBenchConfig: fmt.Sprintf("%d homes x %d bins, window %v", cfg.Homes, 4, cfg.Window),
	}

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_sampler.json", append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("BENCH_sampler.json: %.0f ns/bin, %.2f allocs/bin, %.0f ns/home (%.2fx vs PR 2)",
		nsPerBin, allocsPerBin, nsPerHome, speedup)

	if allocsPerBin > samplerAllocBudget {
		t.Errorf("steady-state allocs/bin %.2f exceeds the %.0f budget", allocsPerBin, samplerAllocBudget)
	}
	if speedup < samplerSpeedupFloor {
		t.Errorf("per-home speedup %.2fx is below the %.1fx regression floor (target 3x)",
			speedup, samplerSpeedupFloor)
	}
}

package deploy

import (
	"testing"
	"time"

	"repro/internal/xrand"
)

// randomHome draws an arbitrary home configuration spanning the ranges
// the fleet synthesizer produces (including zero-device and zero-
// neighbor corners).
func randomHome(rng *xrand.Rand) HomeConfig {
	return HomeConfig{
		ID:          1 + rng.Intn(1000),
		Users:       1 + rng.Intn(4),
		Devices:     rng.Intn(13), // 0 devices = no client feed
		NeighborAPs: rng.Intn(41), // 0 APs = no contenders anywhere
		Weekend:     rng.Bool(0.3),
		StartHour:   rng.Intn(24),
		Seed:        rng.Uint64(),
	}
}

// TestPooledSamplerParity is the bit-for-bit contract of the pooled
// context: one Sampler reused across many randomized homes produces
// exactly the batches that fresh per-home contexts produce — same RNG
// draw order, same event order, hence identical floats in every field.
func TestPooledSamplerParity(t *testing.T) {
	rng := xrand.NewFromLabel(7, "sampler/parity")
	pooled := NewSampler()
	opts := Options{
		BinWidth:         45 * time.Minute,
		Window:           3 * time.Millisecond,
		Hours:            3,
		SensorDistanceFt: 9,
	}
	var fresh, reused BinBatch
	for trial := 0; trial < 12; trial++ {
		cfg := randomHome(rng)
		// Vary the sensor placement too: it exercises the per-device
		// link-budget memo across geometry changes.
		opts.SensorDistanceFt = rng.Uniform(4, 16)

		NewSampler().RunBatch(cfg, opts, &fresh, nil)
		pooled.RunBatch(cfg, opts, &reused, nil)

		if fresh.Len() != reused.Len() {
			t.Fatalf("trial %d: %d bins fresh vs %d pooled", trial, fresh.Len(), reused.Len())
		}
		for i := 0; i < fresh.Len(); i++ {
			if f, p := fresh.Sample(i), reused.Sample(i); f != p {
				t.Fatalf("trial %d bin %d: pooled sample diverged\nfresh:  %+v\npooled: %+v",
					trial, i, f, p)
			}
		}
	}
}

// TestPooledSamplerMatchesRun pins the package-level entry point to a
// dirty pooled context on a paper home (the golden suite pins the same
// property at full scale).
func TestPooledSamplerMatchesRun(t *testing.T) {
	cfg := PaperHomes()[3]
	opts := Options{BinWidth: time.Hour, Window: 2 * time.Millisecond, Hours: 5, SensorDistanceFt: 10}
	res := Run(cfg, opts)
	smp := NewSampler()
	var b BinBatch
	// Run something else first so the pooled context is dirty.
	smp.RunBatch(PaperHomes()[0], opts, &b, nil)
	smp.RunBatch(cfg, opts, &b, nil)
	if b.Len() != len(res.Cumulative) {
		t.Fatalf("pooled %d bins, Run %d", b.Len(), len(res.Cumulative))
	}
	for i := 0; i < b.Len(); i++ {
		if b.CumulativePct[i] != res.Cumulative[i] || b.SensorRate[i] != res.SensorRates[i] {
			t.Fatalf("bin %d: dirty pooled context diverged from Run", i)
		}
	}
}

// TestSampleBinAllocBudget pins the tentpole's steady-state allocation
// contract: once pools are warm, one packet-level bin costs at most 10
// heap allocations (in practice zero — the budget leaves headroom for
// the conditional-drive slices the solver layer allocates on booting
// links).
func TestSampleBinAllocBudget(t *testing.T) {
	smp := NewSampler()
	seed, clientLoad, neighborLoad, window := benchBinInputs()
	smp.sampleBin(seed, clientLoad, neighborLoad, window) // warm pools
	bin := 0
	allocs := testing.AllocsPerRun(50, func() {
		bin++
		smp.sampleBin(seed+uint64(bin), clientLoad, neighborLoad, window)
	})
	if allocs > 10 {
		t.Errorf("steady-state sampleBin allocs/bin = %v, budget is 10", allocs)
	}
	t.Logf("steady-state allocs/bin = %v", allocs)
}

// TestRunBatchAllocBudget extends the allocation budget to a whole
// pooled home run into a reused batch: packet sample plus sensor
// evaluation per bin.
func TestRunBatchAllocBudget(t *testing.T) {
	smp := NewSampler()
	opts := Options{BinWidth: time.Hour, Window: 2 * time.Millisecond, Hours: 2, SensorDistanceFt: 10}
	home := PaperHomes()[2]
	var b BinBatch
	smp.RunBatch(home, opts, &b, nil) // warm pools, the batch and the shared surface
	allocs := testing.AllocsPerRun(20, func() {
		smp.RunBatch(home, opts, &b, nil)
	})
	perBin := allocs / float64(opts.NumBins())
	if perBin > 10 {
		t.Errorf("steady-state RunBatch allocs/bin = %v, budget is 10", perBin)
	}
	t.Logf("steady-state RunBatch allocs/bin = %v", perBin)
}

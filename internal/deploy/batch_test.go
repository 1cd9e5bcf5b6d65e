package deploy

import (
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/xrand"
)

// perBinRef is the reference the batched kernel is certified against:
// the home's planned bins sampled and evaluated one at a time —
// sampleBin, then the sensor chain's scalar Evaluate — with no batch
// columns in between.
func perBinRef(smp *Sampler, cfg HomeConfig, opts Options) []BinSample {
	opts = opts.withDefaults()
	n := opts.NumBins()
	smp.planBins(cfg, opts, n)
	smp.sensor.Exact = opts.Exact
	for i := range smp.monitors {
		smp.monitors[i].BinWidth = opts.Window
	}
	ref := make([]BinSample, n)
	for bin := range ref {
		occ, _ := smp.sampleBin(cfg.Seed*1_000_003+uint64(bin),
			smp.plan.clientLoad[bin], smp.plan.neighborLoad[bin], opts.Window)
		cum := 0.0
		for _, v := range occ {
			cum += v * 100
		}
		rate, netW := smp.sensor.Evaluate(bin, core.PoWiFiLinkOccupancy(opts.SensorDistanceFt, occ))
		ref[bin] = BinSample{
			Bin:           bin,
			HourOfDay:     smp.plan.hour[bin],
			Occupancy:     occ,
			CumulativePct: cum,
			SensorRate:    rate,
			NetHarvestedW: netW,
		}
	}
	return ref
}

// TestRunBatchParity is the bit-for-bit contract of the batched kernel:
// RunBatch's struct-of-arrays columns hold exactly the BinSamples the
// per-bin reference produces — same packet-level samples, same surface
// answers (EvaluateBatch ≡ Evaluate), identical floats in every field —
// across randomized homes, placements and both solver tiers, on one
// pooled context interleaved with reference runs.
func TestRunBatchParity(t *testing.T) {
	rng := xrand.NewFromLabel(11, "batch/parity")
	smp := NewSampler()
	var b BinBatch
	opts := Options{
		BinWidth: 45 * time.Minute,
		Window:   3 * time.Millisecond,
		Hours:    3,
	}
	for trial := 0; trial < 12; trial++ {
		cfg := randomHome(rng)
		opts.SensorDistanceFt = rng.Uniform(4, 16)
		opts.Exact = trial%3 == 0 // exercise the direct-solver tier too

		ref := perBinRef(smp, cfg, opts)
		if !smp.RunBatch(cfg, opts, &b, nil) {
			t.Fatalf("trial %d: RunBatch reported early stop with nil gate", trial)
		}

		if b.Len() != len(ref) {
			t.Fatalf("trial %d: %d bins batched vs %d per-bin", trial, b.Len(), len(ref))
		}
		for i := range ref {
			if !b.Simulated[i] {
				t.Fatalf("trial %d bin %d: exact-tier batch left bin unsimulated", trial, i)
			}
			if got := b.Sample(i); got != ref[i] {
				t.Fatalf("trial %d bin %d: batched sample diverged\nper-bin: %+v\nbatched: %+v",
					trial, i, ref[i], got)
			}
		}
	}
}

// TestRunBatchEarlyStop pins the cancellation contract: the gate is
// consulted before every packet-level sample, and a false return
// abandons the home without corrupting the pooled context.
func TestRunBatchEarlyStop(t *testing.T) {
	smp := NewSampler()
	cfg := randomHome(xrand.NewFromLabel(3, "batch/stop"))
	opts := Options{BinWidth: 30 * time.Minute, Window: 2 * time.Millisecond, Hours: 2, SensorDistanceFt: 9}

	var b BinBatch
	calls := 0
	if smp.RunBatch(cfg, opts, &b, func(bin int) bool { calls++; return bin < 2 }) {
		t.Fatal("RunBatch completed despite gate stop")
	}
	if calls != 3 {
		t.Fatalf("gate consulted %d times, want 3 (bins 0, 1, then the refused 2)", calls)
	}

	// The pooled context must be fully reusable after an abandoned home.
	ref := perBinRef(NewSampler(), cfg, opts)
	if !smp.RunBatch(cfg, opts, &b, nil) {
		t.Fatal("RunBatch failed after early stop")
	}
	for i := range ref {
		if got := b.Sample(i); got != ref[i] {
			t.Fatalf("bin %d after early stop: %+v want %+v", i, got, ref[i])
		}
	}
}

// TestBinBatchMeans pins the home fold on a hand-built batch: means
// over every bin, the silent-bin count, and the banked-harvest clamp
// for a silent bin and a below-sensitivity one.
func TestBinBatchMeans(t *testing.T) {
	var b BinBatch
	if m := b.Means(); m != (HomeMeans{}) {
		t.Fatalf("empty batch means = %+v, want zero", m)
	}
	b.Reset(3)
	b.Occupancy[0], b.SensorRate[0], b.NetHarvestedW[0] = [3]float64{0.1, 0.2, 0.3}, 2, 6e-6
	b.Occupancy[1], b.SensorRate[1], b.NetHarvestedW[1] = [3]float64{0.3, 0.2, 0.1}, 0, 3e-6  // silent
	b.Occupancy[2], b.SensorRate[2], b.NetHarvestedW[2] = [3]float64{0.2, 0.2, 0.2}, 1, -1e-6 // below sensitivity
	for i := range b.CumulativePct {
		b.CumulativePct[i] = 60
	}
	m := b.Means()
	want := HomeMeans{CumulativePct: 60, ChannelPct: [3]float64{20, 20, 20}, BankedHarvestUW: 2, SensorRate: 1, SilentBins: 1}
	close := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
	if m.SilentBins != want.SilentBins || !close(m.CumulativePct, want.CumulativePct) ||
		!close(m.BankedHarvestUW, want.BankedHarvestUW) || !close(m.SensorRate, want.SensorRate) {
		t.Fatalf("Means = %+v, want %+v", m, want)
	}
	for c := range m.ChannelPct {
		if !close(m.ChannelPct[c], want.ChannelPct[c]) {
			t.Fatalf("Means = %+v, want %+v", m, want)
		}
	}
}

// TestRunBatchCoarseCertification is the coarse tier's contract, the
// same empirical discipline the operating-point surface certifies with:
// across randomized homes and placements, (1) the boot/silence decision
// of every bin — the one discontinuous output — is bit-identical to
// the exact tier, (2) per-bin magnitudes on anchor and escalated bins
// are exact, (3) per-home aggregates (mean occupancy, mean banked
// harvest) stay within the documented relative bound, (4) the pooled
// population aggregate — what a fleet sweep actually consumes — is
// unbiased to well under the per-home bound, and (5) the tier actually
// skips event work on a meaningful share of bins.
//
// The certification runs at the fleet's default 10ms measurement
// window. The proxy is a regression over measured anchors, so its ε
// scales with the anchors' own measurement noise; shorter windows
// quantize occupancy coarsely enough (a 2ms window fits only a handful
// of frames) that no per-home bound this tight can hold. CoarseOptions
// documents the window dependence.
func TestRunBatchCoarseCertification(t *testing.T) {
	rng := xrand.NewFromLabel(23, "coarse/cert")
	smp := NewSampler()
	var exact, coarse BinBatch
	opts := Options{
		BinWidth: 20 * time.Minute,
		Window:   10 * time.Millisecond,
		Hours:    8,
	}
	simulated, total := 0, 0
	var poolOccE, poolOccC, poolUWE, poolUWC float64
	for trial := 0; trial < 16; trial++ {
		cfg := randomHome(rng)
		// Span the full placement range: near homes never threaten the
		// boot threshold, far homes sit under it, mid-range homes are
		// the escalation stress case.
		opts.SensorDistanceFt = rng.Uniform(4, 16)

		if !smp.RunBatch(cfg, opts, &exact, nil) || !smp.RunBatchCoarse(cfg, opts, CoarseOptions{}, &coarse, nil) {
			t.Fatalf("trial %d: runner stopped unexpectedly", trial)
		}
		if exact.Len() != coarse.Len() {
			t.Fatalf("trial %d: bin counts differ: %d vs %d", trial, exact.Len(), coarse.Len())
		}

		var sumOccE, sumOccC, sumUWE, sumUWC float64
		for i := 0; i < exact.Len(); i++ {
			e, c := exact.Sample(i), coarse.Sample(i)
			if (e.SensorRate > 0) != (c.SensorRate > 0) {
				t.Fatalf("trial %d bin %d: boot decision flipped (exact rate %v, coarse rate %v, simulated %v)",
					trial, i, e.SensorRate, c.SensorRate, coarse.Simulated[i])
			}
			if coarse.Simulated[i] {
				if e != c {
					t.Fatalf("trial %d bin %d: simulated coarse bin diverged from exact\nexact:  %+v\ncoarse: %+v",
						trial, i, e, c)
				}
				simulated++
			}
			total++
			sumOccE += e.CumulativePct
			sumOccC += c.CumulativePct
			sumUWE += e.BankedHarvestUW()
			sumUWC += c.BankedHarvestUW()
		}
		n := float64(exact.Len())
		if relErr(sumOccC/n, sumOccE/n) > 0.10 {
			t.Fatalf("trial %d: mean occupancy off by >10%%: coarse %.3f vs exact %.3f",
				trial, sumOccC/n, sumOccE/n)
		}
		if relErr(sumUWC/n, sumUWE/n) > 0.15 {
			t.Fatalf("trial %d: mean banked harvest off by >15%%: coarse %.3f vs exact %.3f µW",
				trial, sumUWC/n, sumUWE/n)
		}
		poolOccE += sumOccE
		poolOccC += sumOccC
		poolUWE += sumUWE
		poolUWC += sumUWC
	}
	// The per-home errors must pool down, not compound: fleet summaries
	// average over the population, so the tier's bias is the bound that
	// matters at scale.
	if relErr(poolOccC, poolOccE) > 0.03 {
		t.Fatalf("pooled mean occupancy biased by >3%%: coarse %.3f vs exact %.3f", poolOccC, poolOccE)
	}
	if relErr(poolUWC, poolUWE) > 0.03 {
		t.Fatalf("pooled mean banked harvest biased by >3%%: coarse %.3f vs exact %.3f µW", poolUWC, poolUWE)
	}
	if frac := float64(simulated) / float64(total); frac > 0.55 {
		t.Fatalf("coarse tier simulated %.0f%% of bins; escalation has eaten the tier", 100*frac)
	}
}

// relErr returns |got-want| relative to want, with an absolute floor so
// near-zero means (far placements harvest nothing) compare sanely.
func relErr(got, want float64) float64 {
	denom := math.Abs(want)
	if denom < 1e-9 {
		denom = 1e-9
	}
	return math.Abs(got-want) / denom
}

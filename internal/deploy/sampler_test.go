package deploy

import (
	"math"
	"slices"
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

// sampleBinInterleaved is the reference the per-channel passes of
// sampleBin are certified against: the single-pass form that runs all
// three channels interleaved on one scheduler, resetting everything
// once and starting every channel's contenders, then the client feed,
// then the whole router, before one RunUntil.
func (smp *Sampler) sampleBinInterleaved(seed uint64, clientLoad float64, neighborLoad [3]float64, window time.Duration) ([3]float64, uint64) {
	smp.sched.Reset()
	for i := range smp.channels {
		smp.channels[i].Reset()
		smp.monitors[i].Reset()
		for k := 0; k < smp.lastActiveBg[i]; k++ {
			smp.bg[i][k].Station.Reset()
		}
		smp.lastActiveBg[i] = 0
	}
	smp.rt.Reset(seed)

	for i := range smp.channels {
		load := neighborLoad[i]
		if load <= 0 {
			smp.channels[i].SetActiveStations(1)
			continue
		}
		stations := 1 + int(load/0.2)
		if stations > maxBgStations {
			stations = maxBgStations
		}
		smp.channels[i].SetActiveStations(1 + stations)
		smp.lastActiveBg[i] = stations
		for k := 0; k < stations; k++ {
			bg := smp.bg[i][k]
			bg.RNG().ReseedFromLabel(seed, smp.bgLabels[i][k])
			bg.Load = load / float64(stations)
			bg.Start()
		}
	}

	if clientLoad > 0 {
		smp.clientRng.ReseedFromLabel(seed, "clients")
		smp.clientMean = smp.frameAir / clientLoad
		smp.armClient()
	}

	smp.rt.Start()
	smp.sched.RunUntil(window)

	var occ [3]float64
	for i, mon := range smp.monitors {
		occ[i] = mon.MeanOccupancy()
	}
	return occ, smp.sched.Scheduled()
}

// channelPassPair holds two dirty pooled contexts, one sampling bins in
// per-channel passes and one in the interleaved reference form.
type channelPassPair struct{ passes, ref *Sampler }

// check samples one bin both ways and fails unless the occupancy floats
// are bit-identical and the kernel event counts agree.
func (p channelPassPair) check(t *testing.T, seed uint64, clientLoad float64, neighborLoad [3]float64, window time.Duration) {
	t.Helper()
	got, gotEvents := p.passes.sampleBin(seed, clientLoad, neighborLoad, window)
	want, wantEvents := p.ref.sampleBinInterleaved(seed, clientLoad, neighborLoad, window)
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("seed %d client %v neighbors %v window %v: channel %d occupancy %v, interleaved %v",
				seed, clientLoad, neighborLoad, window, i, got[i], want[i])
		}
	}
	if gotEvents != wantEvents {
		t.Fatalf("seed %d client %v neighbors %v window %v: %d kernel events, interleaved %d",
			seed, clientLoad, neighborLoad, window, gotEvents, wantEvents)
	}
}

// TestSampleBinChannelPasses certifies the per-channel passes against
// the interleaved reference over randomized bins: idle channels (router
// radio only) and one to four contenders, with and without client load,
// at 2, 3 and 10 ms windows.
func TestSampleBinChannelPasses(t *testing.T) {
	rng := xrand.NewFromLabel(5, "sampler/channel-passes")
	pair := channelPassPair{NewSampler(), NewSampler()}
	windows := []time.Duration{2 * time.Millisecond, 3 * time.Millisecond, 10 * time.Millisecond}
	var contenders [maxBgStations + 1]int // channel passes per contender count
	var clientBins [2]int                 // without, with client load
	var windowBins [3]int
	for bin := 0; bin < 600; bin++ {
		var neighborLoad [3]float64
		for i := range neighborLoad {
			if !rng.Bool(0.25) {
				neighborLoad[i] = rng.Uniform(0.01, 0.9)
			}
			n := 0
			if l := neighborLoad[i]; l > 0 {
				n = min(1+int(l/0.2), maxBgStations)
			}
			contenders[n]++
		}
		clientLoad := 0.0
		if rng.Bool(0.7) {
			clientLoad = rng.Uniform(0.02, 0.6)
			clientBins[1]++
		} else {
			clientBins[0]++
		}
		w := rng.Intn(len(windows))
		windowBins[w]++
		pair.check(t, rng.Uint64(), clientLoad, neighborLoad, windows[w])
	}
	for n, c := range contenders {
		if c == 0 {
			t.Errorf("no channel ran with %d contenders", n)
		}
	}
	if slices.Contains(clientBins[:], 0) || slices.Contains(windowBins[:], 0) {
		t.Errorf("coverage gap: bins without/with client load %v, per window %v", clientBins, windowBins)
	}
}

// FuzzSampleBinChannels drives the same differential from fuzzed seeds,
// loads and windows. Loads are mapped to thousandths (0–1.0 neighbor,
// 0–0.6 client) and the window to 0.5–10 ms, so every input is a
// well-formed bin.
func FuzzSampleBinChannels(f *testing.F) {
	f.Add(uint64(1), uint16(350), uint16(250), uint16(80), uint16(400), uint16(9500))
	f.Add(uint64(2), uint16(0), uint16(0), uint16(0), uint16(0), uint16(1500))
	f.Add(uint64(3), uint16(600), uint16(1000), uint16(0), uint16(850), uint16(2500))
	pair := channelPassPair{NewSampler(), NewSampler()}
	f.Fuzz(func(t *testing.T, seed uint64, client, n1, n6, n11, windowUs uint16) {
		neighborLoad := [3]float64{
			float64(n1%1001) / 1000, float64(n6%1001) / 1000, float64(n11%1001) / 1000,
		}
		window := time.Duration(500+int(windowUs)%9501) * time.Microsecond
		pair.check(t, seed, float64(client%601)/1000, neighborLoad, window)
	})
}

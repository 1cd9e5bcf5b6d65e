package deploy

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/phy"
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

// TestPooledSamplerMatchesRun pins a fresh Sampler's run of a paper
// home to a dirty pooled context's (the golden suite pins the same
// property at full scale).
func TestPooledSamplerMatchesRun(t *testing.T) {
	cfg := PaperHomes()[3]
	opts := Options{BinWidth: time.Hour, Window: 2 * time.Millisecond, Hours: 5, SensorDistanceFt: 10}
	fresh := runHome(cfg, opts)
	smp := NewSampler()
	var b BinBatch
	// Run something else first so the pooled context is dirty.
	smp.RunBatch(PaperHomes()[0], opts, &b, nil)
	smp.RunBatch(cfg, opts, &b, nil)
	if b.Len() != fresh.Len() {
		t.Fatalf("pooled %d bins, fresh %d", b.Len(), fresh.Len())
	}
	for i := 0; i < b.Len(); i++ {
		if b.CumulativePct[i] != fresh.CumulativePct[i] || b.SensorRate[i] != fresh.SensorRate[i] {
			t.Fatalf("bin %d: dirty pooled context diverged from a fresh run", i)
		}
	}
}

// TestSampleBinAllocBudget pins the steady-state allocation contract:
// once pools are warm, one packet-level bin allocates nothing, contended
// or idle, with or without client load.
func TestSampleBinAllocBudget(t *testing.T) {
	seed, clientLoad, neighborLoad, window := benchBinInputs()
	for _, c := range []struct {
		name         string
		clientLoad   float64
		neighborLoad [3]float64
		budget       float64
	}{
		{"contended", clientLoad, neighborLoad, 0},
		{"idle", 0, [3]float64{}, 0},
		{"idle+client", clientLoad, [3]float64{}, 0},
	} {
		smp := NewSampler()
		smp.sampleBin(seed, c.clientLoad, c.neighborLoad, window) // warm pools
		bin := 0
		allocs := testing.AllocsPerRun(50, func() {
			bin++
			smp.sampleBin(seed+uint64(bin), c.clientLoad, c.neighborLoad, window)
		})
		if allocs > c.budget {
			t.Errorf("%s: steady-state sampleBin allocs/bin = %v, budget is %v", c.name, allocs, c.budget)
		}
		t.Logf("%s: steady-state allocs/bin = %v", c.name, allocs)
	}
}

// TestRunBatchAllocBudget extends the allocation budget to a whole
// pooled home run into a reused batch, on both tiers: packet samples,
// sensor evaluation and, on the coarse tier, the fits, guard queries
// and escalations. Once the pools, the batch and the shared surface are
// warm, a home allocates nothing.
func TestRunBatchAllocBudget(t *testing.T) {
	opts := Options{BinWidth: time.Hour, Window: 10 * time.Millisecond, Hours: 24}
	for _, c := range []struct {
		name       string
		distanceFt float64
		run        func(*Sampler, HomeConfig, Options, *BinBatch) bool
	}{
		{"exact", 10, func(smp *Sampler, cfg HomeConfig, opts Options, b *BinBatch) bool {
			return smp.RunBatch(cfg, opts, b, nil)
		}},
		// At the edge of the paper homes' boot threshold, so one home's
		// seed and guard queries fail and its bins escalate as well as
		// proxy.
		{"coarse", 16, func(smp *Sampler, cfg HomeConfig, opts Options, b *BinBatch) bool {
			return smp.RunBatchCoarse(cfg, opts, CoarseOptions{}, b, nil)
		}},
	} {
		smp := NewSampler()
		opts.SensorDistanceFt = c.distanceFt
		var b BinBatch
		homes := PaperHomes()
		for _, home := range homes {
			c.run(smp, home, opts, &b) // warm pools, the batch and the shared surface
		}
		i := 0
		allocs := testing.AllocsPerRun(10, func() {
			c.run(smp, homes[i%len(homes)], opts, &b)
			i++
		})
		if allocs != 0 {
			t.Errorf("%s: steady-state allocs/home = %v, want 0", c.name, allocs)
		}
	}
}

// kernelBin is the reference the per-channel passes of sampleBin are
// certified against: one event-kernel run of the bin over all three
// channels interleaved on one scheduler, on a freshly built Sampler.
// It starts every channel's contenders, then the client feed, then the
// whole router, before one RunUntil. A fresh Sampler attaches all
// maxBgStations contenders to every channel; those the bin does not
// start stay idle and change nothing, since carrier-sense edges are
// no-ops for an idle station and every frame is broadcast. It returns
// the Sampler so callers can inspect its channels.
func kernelBin(seed uint64, clientLoad float64, neighborLoad [3]float64, window time.Duration) ([3]float64, uint64, *Sampler) {
	smp := NewSampler()
	smp.rt.Reset(seed)
	for i, load := range neighborLoad {
		if load <= 0 {
			continue
		}
		stations := min(1+int(load/0.2), maxBgStations)
		for k, bg := range smp.bg[i][:stations] {
			bg.RNG().ReseedFromLabel(seed, smp.bgLabels[i][k])
			bg.Load = load / float64(stations)
			bg.Start()
		}
	}

	if clientLoad > 0 {
		smp.clientRng.ReseedFromLabel(seed, "clients")
		smp.clientMean = smp.frameAir / clientLoad
		// Fire-and-rearm: draw the gap, then at each arrival enqueue a
		// client frame and draw the next gap.
		radio := smp.radios[0].MAC
		var arrive func(any)
		arrive = func(any) {
			radio.Enqueue(clientFrame(radio))
			smp.sched.AfterCtx(smp.clientGap(), arrive, nil)
		}
		smp.sched.AfterCtx(smp.clientGap(), arrive, nil)
	}

	smp.rt.Start()
	smp.sched.RunUntil(window)

	var occ [3]float64
	for i, mon := range smp.monitors {
		occ[i] = mon.MeanOccupancy()
	}
	return occ, smp.sched.Scheduled(), smp
}

// checkPasses samples one bin through smp's channel passes and through
// kernelBin, and fails unless the occupancy floats are bit-identical
// and the kernel event counts agree.
func checkPasses(t *testing.T, smp *Sampler, seed uint64, clientLoad float64, neighborLoad [3]float64, window time.Duration) {
	t.Helper()
	got, gotEvents := smp.sampleBin(seed, clientLoad, neighborLoad, window)
	want, wantEvents, _ := kernelBin(seed, clientLoad, neighborLoad, window)
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("seed %d client %v neighbors %v window %v: channel %d occupancy %v, kernel %v",
				seed, clientLoad, neighborLoad, window, i, got[i], want[i])
		}
	}
	if gotEvents != wantEvents {
		t.Fatalf("seed %d client %v neighbors %v window %v: %d pass events, kernel %d",
			seed, clientLoad, neighborLoad, window, gotEvents, wantEvents)
	}
}

// TestSampleBinChannelPasses certifies a dirty pooled Sampler's channel
// passes against the fresh kernel reference over randomized bins: zero
// to four contenders per channel, with and without client load, at 2,
// 3 and 10 ms windows and at 120 ms, past the 102.4 ms beacon interval.
func TestSampleBinChannelPasses(t *testing.T) {
	rng := xrand.NewFromLabel(5, "sampler/channel-passes")
	smp := NewSampler()
	windows := []time.Duration{2 * time.Millisecond, 3 * time.Millisecond, 10 * time.Millisecond, 120 * time.Millisecond}
	var contenders [maxBgStations + 1]int // channel passes per contender count
	var clientBins [2]int                 // without, with client load
	var windowBins [4]int
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
		checkPasses(t, smp, rng.Uint64(), clientLoad, neighborLoad, windows[w])
	}
	for n, c := range contenders {
		if c == 0 {
			t.Errorf("no channel ran with %d contenders", n)
		}
	}
	t.Logf("channel passes per contender count: %v", contenders)
	if slices.Contains(clientBins[:], 0) || slices.Contains(windowBins[:], 0) {
		t.Errorf("coverage gap: bins without/with client load %v, per window %v", clientBins, windowBins)
	}
}

// FuzzSampleBinChannels drives the same differential from fuzzed seeds,
// loads and windows. Loads are mapped to thousandths (0–1.0 neighbor,
// 0–0.6 client) and the window to 0.5–131.6 ms in 2 µs steps, past the
// 102.4 ms beacon interval, so every input is a well-formed bin.
func FuzzSampleBinChannels(f *testing.F) {
	f.Add(uint64(1), uint16(350), uint16(250), uint16(80), uint16(400), uint16(4500))
	f.Add(uint64(2), uint16(0), uint16(0), uint16(0), uint16(0), uint16(500))
	f.Add(uint64(3), uint16(600), uint16(1000), uint16(0), uint16(850), uint16(1000))
	// Idle channels with client load, within and past the beacon
	// interval.
	f.Add(uint64(4), uint16(450), uint16(0), uint16(0), uint16(0), uint16(4750))
	f.Add(uint64(5), uint16(300), uint16(0), uint16(0), uint16(0), uint16(60000))
	f.Add(uint64(6), uint16(120), uint16(0), uint16(500), uint16(0), uint16(55000))
	// Four contenders on every channel with client load, at 120 ms.
	f.Add(uint64(7), uint16(400), uint16(800), uint16(800), uint16(800), uint16(59750))
	// A contender arrival tied with the 102.4 ms beacon (found by search:
	// the tie needs an exponential gap to land on the exact nanosecond).
	f.Add(uint64(86496), uint16(300), uint16(1000), uint16(1000), uint16(1000), uint16(65535))
	smp := NewSampler()
	f.Fuzz(func(t *testing.T, seed uint64, client, n1, n6, n11, window2Us uint16) {
		neighborLoad := [3]float64{
			float64(n1%1001) / 1000, float64(n6%1001) / 1000, float64(n11%1001) / 1000,
		}
		window := time.Duration(500+2*int(window2Us)) * time.Microsecond
		checkPasses(t, smp, seed, float64(client%601)/1000, neighborLoad, window)
	})
}

// TestPassTimersTieOrder pins the channel pass's tie rule, which
// random bins almost never exercise: MAC timers due at the same time
// fire in the order they were armed, as the kernel's (time, sequence)
// key orders them, and a transmission starting at that instant pauses
// the later timer before it fires.
func TestPassTimersTieOrder(t *testing.T) {
	smp := NewSampler()
	bg := smp.bg[0][0]
	p := channelPass{passTimers: passTimers{window: time.Second}, n: 2, onAir: -1, mon: smp.monitors[0]}
	for k := range p.at {
		p.disarm(k)
	}
	p.st[0], p.st[1] = smp.radios[0].MAC, bg.Station
	// Both stations take a frame at time 0 on the idle channel, the
	// contender first: both wait DIFS, due at the same instant.
	p.enqueue(1, bg.Frame(), 0)
	p.enqueue(0, smp.radios[0].Beacon(), 0)
	if p.at[0] != p.at[1] {
		t.Fatalf("DIFS timers due at %v and %v, want a tie", p.at[0], p.at[1])
	}
	if s := p.next(0, p.n); s != 1 || p.before(0, 1) {
		t.Fatalf("next MAC timer = station %d, want the contender, armed first", s)
	}
	now := p.at[1]
	p.disarm(1)
	p.access(1, now) // zero backoff slots: the contender transmits
	if p.onAir != 1 {
		t.Fatalf("station on the air = %d, want the contender", p.onAir)
	}
	if p.at[0] != math.MaxInt64 {
		t.Fatalf("the router's tied DIFS timer is still armed at %v after the busy edge", p.at[0])
	}
	// The end of the transmission restarts the router's DIFS before the
	// contender's own, so the router's fires first.
	end := p.at[1]
	p.disarm(1)
	p.endTx(1, end)
	if p.at[0] != p.at[1] || !p.before(0, 1) {
		t.Fatalf("after the idle edge: router DIFS (%v, %d), contender (%v, %d); want a tie the router wins",
			p.at[0], p.key[0], p.at[1], p.key[1])
	}
	if p.seq != 5 {
		t.Fatalf("handed out %d sequence numbers, want 5 (two DIFS, the end, two DIFS)", p.seq)
	}
}

// TestSamplerOneCollisionDomain pins the channel pass's envelope: every
// station NewSampler attaches to a channel senses every other one, the
// fresh kernel reference logs no collision over randomized contended
// bins, and a sampler whose stations could not hear each other is
// refused at construction.
func TestSamplerOneCollisionDomain(t *testing.T) {
	smp := NewSampler()
	for _, ch := range smp.channels {
		for src := 0; src <= maxBgStations; src++ {
			for dst := 0; dst <= maxBgStations; dst++ {
				if rx := ch.StationRxDBm(src, dst); src != dst && rx < phy.CSThresholdDBm {
					t.Errorf("channel %v: station %d hears station %d at %.1f dBm, below carrier sense", ch.Num, dst, src, rx)
				}
			}
		}
	}

	rng := xrand.NewFromLabel(11, "sampler/collision-domain")
	for bin := 0; bin < 200; bin++ {
		var neighborLoad [3]float64
		for i := range neighborLoad {
			neighborLoad[i] = rng.Uniform(0.01, 0.9)
		}
		window := []time.Duration{2 * time.Millisecond, 10 * time.Millisecond, 120 * time.Millisecond}[rng.Intn(3)]
		_, _, ref := kernelBin(rng.Uint64(), rng.Uniform(0, 0.6), neighborLoad, window)
		for _, ch := range ref.channels {
			if ch.Collisions != 0 {
				t.Fatalf("bin %d: channel %v logged %d collisions", bin, ch.Num, ch.Collisions)
			}
		}
	}

	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "station 0 does not sense station 3") {
			t.Fatalf("a contender out of carrier-sense range: recovered %q, want a panic naming the pair", msg)
		}
	}()
	far := NewSampler()
	far.bg[0][2].Station.PowerDBm = -80
	far.channels[0].InvalidateRxCache()
	far.checkOneCollisionDomain()
}

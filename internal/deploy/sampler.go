package deploy

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/eventsim"
	"repro/internal/medium"
	"repro/internal/monitor"
	"repro/internal/phy"
	"repro/internal/router"
	"repro/internal/trace"
	"repro/internal/traffic"
	"repro/internal/xrand"
)

// maxBgStations caps the DCF contenders modelling one channel's neighbor
// load, mirroring the paper-calibrated ceiling in neighbor station
// provisioning (a crowded neighborhood fields at most four contenders
// per channel in the sampler).
const maxBgStations = 4

// Sampler is a pooled single-home simulation context: the scheduler,
// channel media, PoWiFi router, monitors, neighbor-load generators and
// sensor device are built once and Reset between logging bins, so the
// per-bin packet-level sample pays no allocator or GC tax in steady
// state.
//
// Pooling is bit-for-bit invisible: every component Reset restores its
// just-constructed state and every RNG stream is reseeded in place on
// the same (seed, label) derivation a fresh construction would use, so
// a pooled Sampler reproduces the exact event order and RNG draw order
// of a fresh one (the parity suite in sampler_test.go pins this, and
// the golden suite pins it transitively for the paper runs).
//
// A Sampler is not safe for concurrent use; the fleet runner gives each
// worker its own.
type Sampler struct {
	sched    *eventsim.Scheduler
	channels [3]*medium.Channel
	rt       *router.Router
	monitors [3]*monitor.Monitor

	// bg[i][k] is contender k on PoWiFi channel i; bgLabels caches the
	// per-station RNG stream labels so per-bin reseeding needs no
	// fmt.Sprintf.
	bg       [3][maxBgStations]*traffic.Background
	bgLabels [3][maxBgStations]string

	// Client downlink feed on channel 1 (persistent callbacks; armed
	// only for bins with client load).
	clientRng  *xrand.Rand
	clientMean float64
	clientFire func(any)

	homeRng  *xrand.Rand
	sensor   *core.TempSensorDevice
	frameAir float64 // airtime of a 1500-byte client frame at 54 Mbps

	// lastActiveBg[i] counts the contenders on channel i that ran last
	// bin, so the per-bin reset touches only stations with state.
	lastActiveBg [3]int

	// tr is the current home's observation handle when the owning run
	// observes it (nil otherwise — a nil-receiver no-op, so the hot path
	// keeps its allocation budget). Set via TraceHome per home;
	// detached on pool release, so a pooled sampler can never report
	// into a previous run.
	tr *trace.HomeTrace

	// plan holds the pooled struct-of-arrays bin plan (hours and offered
	// loads) the current home's bins are driven from; see planBins.
	plan binPlan

	// escBuf is the pooled escalation work list of the coarse tier.
	escBuf []escalation
}

// escalation is one coarse-tier bin pushed back to the exact path,
// tagged with the machine-readable reason the guard demoted it.
type escalation struct {
	bin    int32
	reason trace.EscReason
}

// binPlan is the struct-of-arrays form of one home's per-bin drive: the
// local hour and the offered client/neighbor loads for every logging
// bin, drawn up front in one pass. Planning is pure home-stream
// randomness — the packet-level sampler never touches the home RNG — so
// hoisting the draws out of the bin loop preserves the exact draw order
// of the historical interleaved form. seed and window are the home
// seed every bin's packet-level seed derives from and the sample
// window each bin simulates.
type binPlan struct {
	hour         []float64
	clientLoad   []float64
	neighborLoad [][3]float64
	seed         uint64
	window       time.Duration
}

func (p *binPlan) reset(n int) {
	p.hour = resize(p.hour, n)
	p.clientLoad = resize(p.clientLoad, n)
	if cap(p.neighborLoad) < n {
		p.neighborLoad = make([][3]float64, n)
	}
	p.neighborLoad = p.neighborLoad[:n]
}

// resize returns a length-n float slice, reusing s's backing array when
// it is large enough.
func resize(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// NewSampler builds a pooled sampling context. Construction mirrors the
// per-bin topology the original sampler built from scratch: consumer
// router on channels 1/6/11 (450 µs user wake cost), per-channel
// monitors filtered to the router's radios, and the maximum complement
// of neighbor contenders per channel. Contenders beyond a bin's active
// count simply stay idle — an attached station that never transmits
// draws no randomness and schedules no events, so the surplus is
// invisible to the simulation.
func NewSampler() *Sampler {
	smp := &Sampler{sched: eventsim.New()}
	channels := make(map[phy.Channel]*medium.Channel, 3)
	for i, chNum := range phy.PoWiFiChannels {
		smp.channels[i] = medium.NewChannel(chNum, smp.sched)
		channels[chNum] = smp.channels[i]
	}
	rcfg := router.DefaultConfig()
	// Consumer home routers run the injectors on a slow MIPS/ARM SoC that
	// also handles NAT; the user-space refill latency is several times the
	// benchmark router's, which caps per-channel occupancy near the
	// 30-45% the paper's Fig. 14 shows.
	rcfg.UserWakeCost = 450 * time.Microsecond
	smp.rt = router.New(rcfg, smp.sched, channels, 100, 0)

	for i, chNum := range phy.PoWiFiChannels {
		smp.monitors[i] = monitor.New(smp.channels[i], time.Second, 100+i)
		for k := 0; k < maxBgStations; k++ {
			smp.bg[i][k] = traffic.NewBackground(smp.sched, smp.channels[i], 300+10*i+k,
				medium.Location{X: 8, Y: 6 + float64(k)}, 0, xrand.New(0))
			smp.bgLabels[i][k] = fmt.Sprintf("bg/%v/%d", chNum, k)
		}
	}

	smp.clientRng = xrand.New(0)
	radio := smp.rt.Radio(phy.Channel1).MAC
	smp.frameAir = float64(phy.Airtime(1500+phy.MACOverheadBytes, phy.Rate54Mbps))
	smp.clientFire = func(any) {
		f := radio.NewFrame()
		f.DstID = medium.Broadcast // home devices in aggregate
		f.Bytes = 1500
		f.Kind = medium.KindData
		f.FixedRate = phy.Rate54Mbps
		radio.Enqueue(f)
		smp.armClient()
	}

	smp.homeRng = xrand.New(0)
	smp.sensor = core.NewBatteryFreeTempSensor()
	return smp
}

// TraceHome attaches (or, with nil, detaches) one home's observation
// handle to the pooled context and its sensor chain: simulated bins,
// surface-query outcomes and coarse-tier decisions report into it.
// Observation is strictly out of band — no randomness, no event-order
// changes — so observed and bare runs are bit-for-bit identical, and a
// nil handle costs one predictable branch per site.
func (smp *Sampler) TraceHome(ht *trace.HomeTrace) {
	smp.tr = ht
	smp.sensor.Tele = nil // a nil interface, so bare runs skip outcome reporting
	if ht != nil {
		smp.sensor.Tele = ht
	}
}

// armClient schedules the next Poisson client-frame arrival, exactly as
// the original closure chain did: draw the gap, then fire-and-rearm.
func (smp *Sampler) armClient() {
	smp.sched.AfterCtx(time.Duration(smp.clientRng.Exp(smp.clientMean)), smp.clientFire, nil)
}

// planBins draws the home's full bin plan into smp.plan: the per-home
// channel weights and AP assignment, then every bin's offered loads, in
// exactly the order the historical per-bin interleaved loop drew them.
// sampleBin never touches the home RNG (it reseeds the packet-level
// streams from the bin seed), so planning up front consumes the home
// stream identically and the simulated bins are bit-for-bit unchanged.
func (smp *Sampler) planBins(cfg HomeConfig, opts Options, nBins int) {
	rng := smp.homeRng
	rng.ReseedFromLabel(cfg.Seed, "home")

	// Distribute neighbor APs across the three channels. Real 2.4 GHz
	// neighborhoods cluster unevenly on 1/6/11 (auto channel selection
	// herds APs), which is what makes Fig. 14's per-channel curves differ
	// so strongly between homes: draw per-home channel weights with a
	// cubic skew, then assign APs by weight.
	weights := [3]float64{}
	wsum := 0.0
	for i := range weights {
		u := rng.Float64()
		weights[i] = u * u * u
		wsum += weights[i]
	}
	var apChannels [3]int
	for i := 0; i < cfg.NeighborAPs; i++ {
		u := rng.Float64() * wsum
		acc := 0.0
		for j, w := range weights {
			acc += w
			if u < acc {
				apChannels[j]++
				break
			}
		}
	}

	smp.plan.reset(nBins)
	smp.plan.seed, smp.plan.window = cfg.Seed, opts.Window
	for bin := 0; bin < nBins; bin++ {
		hour := math.Mod(float64(cfg.StartHour)+float64(bin)*opts.BinWidth.Hours(), 24)
		act := activity(hour, cfg.Weekend)
		smp.plan.hour[bin] = hour

		// Per-bin offered loads.
		clientLoad := (0.02 + 0.45*act) * float64(cfg.Devices) / 6.0
		if clientLoad > 0.6 {
			clientLoad = 0.6
		}
		smp.plan.clientLoad[bin] = clientLoad
		var neighborLoad [3]float64
		// Iterate channels in fixed order so the RNG draws stay
		// deterministic.
		for j := range neighborLoad {
			n := apChannels[j]
			if n == 0 {
				continue
			}
			// Each neighbor AP idles at ~1% airtime (beacons, chatter) and
			// climbs toward ~13% when its household is active (streaming
			// video dominates evening loads).
			l := float64(n) * (0.012 + 0.120*act) * rng.Uniform(0.4, 1.6)
			if l > 0.85 {
				l = 0.85
			}
			neighborLoad[j] = l
		}
		smp.plan.neighborLoad[bin] = neighborLoad
	}
}

// sampleBin resets the pooled context and runs one packet-level window,
// returning the router's per-channel occupancy fractions and the bin's
// kernel event count.
//
// The three PoWiFi channels do not overlap and share no state: each
// component draws from its own (seed, label) stream and only channel 1
// carries the client feed. So each channel runs as its own pass on the
// one scheduler, which then holds a third of the bin's timers. Within a
// channel the start-up order (contenders in order, the client feed,
// then the router radio) and the rising sequence numbers are those of a
// single pass over all three channels, so each channel fires exactly
// the subsequence of events it would there, and the event count is the
// sum of the passes'.
//
//powifi:noalloc
func (smp *Sampler) sampleBin(seed uint64, clientLoad float64, neighborLoad [3]float64, window time.Duration) (occ [3]float64, events uint64) {
	smp.rt.Reset(seed)
	for i, ch := range smp.channels {
		// The monitor reset reads the clock, so the scheduler goes first.
		smp.sched.Reset()
		ch.Reset()
		smp.monitors[i].Reset()
		// Only contenders that ran last bin carry state worth clearing;
		// the dormant spares are still in their just-reset state.
		for k := 0; k < smp.lastActiveBg[i]; k++ {
			smp.bg[i][k].Station.Reset()
		}
		smp.lastActiveBg[i] = 0

		// Neighbor load, spread over several contending stations: a
		// crowded neighborhood does not just offer more airtime, it also
		// fields more DCF contenders, each of which wins transmit
		// opportunities against our router. Only the contenders a fresh
		// build would have constructed participate this bin; the pooled
		// spares beyond them are deactivated so the medium's per-frame
		// loops see exactly the fresh-build station set.
		if load := neighborLoad[i]; load <= 0 {
			ch.SetActiveStations(1) // router radio only
		} else {
			stations := 1 + int(load/0.2)
			if stations > maxBgStations {
				stations = maxBgStations
			}
			ch.SetActiveStations(1 + stations)
			smp.lastActiveBg[i] = stations
			for k := 0; k < stations; k++ {
				bg := smp.bg[i][k]
				bg.RNG().ReseedFromLabel(seed, smp.bgLabels[i][k])
				bg.Load = load / float64(stations)
				bg.Start()
			}
		}

		// The home's own client traffic rides channel 1 through the
		// router's fair queue, competing with the injector exactly as
		// §3.2 describes.
		if i == 0 && clientLoad > 0 {
			smp.clientRng.ReseedFromLabel(seed, "clients")
			smp.clientMean = smp.frameAir / clientLoad
			smp.armClient()
		}

		smp.rt.StartRadio(i)
		smp.sched.RunUntil(window)
		occ[i] = smp.monitors[i].MeanOccupancy()
		events += smp.sched.Scheduled()
	}
	return occ, events
}

package deploy

import (
	"fmt"
	"math"
	"math/bits"
	"time"

	"repro/internal/core"
	"repro/internal/eventsim"
	"repro/internal/mac"
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
// sensor device are built once, and the components a bin's channel
// passes touch (scheduler clock, monitors, router, the contenders that
// ran) are Reset between logging bins, so the per-bin packet-level
// sample pays no allocator or GC tax in steady state.
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
	radios   [3]*router.Radio // rt's radios in channel order
	monitors [3]*monitor.Monitor

	// bg[i][k] is contender k on PoWiFi channel i; bgLabels caches the
	// per-station RNG stream labels so per-bin reseeding needs no
	// fmt.Sprintf.
	bg       [3][maxBgStations]*traffic.Background
	bgLabels [3][maxBgStations]string

	// Client downlink feed on channel 1 (armed only for bins with
	// client load).
	clientRng  *xrand.Rand
	clientMean float64

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

	// escBuf is the pooled escalation work list of the coarse tier, and
	// guardHi and guardLo its pooled guard frontiers (see
	// RunBatchCoarse).
	escBuf           []escalation
	guardHi, guardLo frontier
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
		smp.radios[i] = smp.rt.Radio(chNum)
		smp.monitors[i] = monitor.New(smp.channels[i], time.Second, 100+i)
		for k := 0; k < maxBgStations; k++ {
			smp.bg[i][k] = traffic.NewBackground(smp.sched, smp.channels[i], 300+10*i+k,
				medium.Location{X: 8, Y: 6 + float64(k)}, 0, xrand.New(0))
			smp.bgLabels[i][k] = fmt.Sprintf("bg/%v/%d", chNum, k)
		}
	}

	smp.checkOneCollisionDomain()

	smp.clientRng = xrand.New(0)
	smp.frameAir = float64(phy.Airtime(1500+phy.MACOverheadBytes, phy.Rate54Mbps))

	smp.homeRng = xrand.New(0)
	smp.sensor = core.NewBatteryFreeTempSensor()
	return smp
}

// checkOneCollisionDomain panics unless every station attached to a
// channel, active or spare, senses every other one there: the envelope
// the channel pass relies on (see pass). Attachment index 0 is the
// router radio and 1+k contender k.
func (smp *Sampler) checkOneCollisionDomain() {
	for _, ch := range smp.channels {
		for src := 0; src <= maxBgStations; src++ {
			for dst := 0; dst <= maxBgStations; dst++ {
				if rx := ch.StationRxDBm(src, dst); src != dst && rx < phy.CSThresholdDBm {
					panic(fmt.Sprintf("deploy: on channel %v, station %d does not sense station %d (%.1f dBm, below the %v dBm carrier-sense threshold)",
						ch.Num, dst, src, rx, phy.CSThresholdDBm))
				}
			}
		}
	}
}

// TraceHome attaches (or, with nil, detaches) one home's observation
// handle to the pooled context and its sensor chain: simulated bins,
// surface-query outcomes and coarse-tier decisions report into it.
// Observation is strictly out of band — no randomness, no event-order
// changes — so observed and bare runs are bit-for-bit identical, and a
// nil handle costs a no-op call per site.
func (smp *Sampler) TraceHome(ht *trace.HomeTrace) {
	smp.tr = ht
	smp.sensor.Tele = ht
}

// clientGap draws the time to the next client-frame arrival.
func (smp *Sampler) clientGap() time.Duration {
	return time.Duration(smp.clientRng.Exp(smp.clientMean))
}

// clientFrame returns one client downlink frame from radio's pool.
func clientFrame(radio *mac.Station) *mac.Frame {
	f := radio.NewFrame()
	f.DstID = medium.Broadcast // home devices in aggregate
	f.Bytes = 1500
	f.Kind = medium.KindData
	f.FixedRate = phy.Rate54Mbps
	return f
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
// carries the client feed. So each channel runs as its own pass, and
// the event count is the sum of the passes'. A pass fires exactly the
// events, in the same order and with the same draws, that the channel
// fires in one event-kernel run over all three channels on a freshly
// built Sampler (the reference kept in sampler_test.go); see pass.
//
//powifi:noalloc
func (smp *Sampler) sampleBin(seed uint64, clientLoad float64, neighborLoad [3]float64, window time.Duration) (occ [3]float64, events uint64) {
	smp.rt.Reset(seed)
	for i := range smp.channels {
		// The monitor reset reads the clock, so the scheduler goes first.
		smp.sched.Reset()
		smp.monitors[i].Reset()
		// Only contenders that ran last bin carry state worth clearing;
		// the dormant spares are still in their just-reset state.
		for k := 0; k < smp.lastActiveBg[i]; k++ {
			smp.bg[i][k].Station.Reset()
		}

		// Neighbor load, spread over several contending stations: a
		// crowded neighborhood does not just offer more airtime, it also
		// fields more DCF contenders, each of which wins transmit
		// opportunities against our router. Only the contenders a fresh
		// build would have constructed take part this bin.
		stations := 0
		if load := neighborLoad[i]; load > 0 {
			stations = min(1+int(load/0.2), maxBgStations)
			for k := 0; k < stations; k++ {
				bg := smp.bg[i][k]
				bg.RNG().ReseedFromLabel(seed, smp.bgLabels[i][k])
				bg.Load = load / float64(stations)
			}
		}
		smp.lastActiveBg[i] = stations

		// The home's own client traffic rides channel 1 through the
		// router's fair queue, competing with the injector exactly as
		// §3.2 describes.
		client := i == 0 && clientLoad > 0
		if client {
			smp.clientRng.ReseedFromLabel(seed, "clients")
			smp.clientMean = smp.frameAir / clientLoad
		}

		events += smp.pass(i, stations, client, window)
		// The pass queues nothing, so this only moves the clock the
		// monitor reads to the end of the window.
		smp.sched.RunUntil(window)
		occ[i] = smp.monitors[i].MeanOccupancy()
	}
	return occ, events
}

// A channel pass's timers. Station s (0 for the router radio, 1+k for
// contender k, in attachment order) has a MAC timer at index s: its
// DIFS or backoff, or the end of its transmission while it is on the
// air, when it has no access timer. The traffic sources follow: the
// router radio's client feed, beacon and injector, then contender k's
// arrivals at tInjector+1+k.
const (
	tClient = 1 + maxBgStations + iota
	tBeacon
	tInjector
	maxTimers = tInjector + 1 + maxBgStations
)

// passTimers is a channel pass's timer set. Each timer carries the
// kernel's (time, sequence) key, and sequence numbers are handed out
// wherever the kernel path would schedule an event, so ties fire in the
// kernel's order and seq ends as the pass's kernel event count.
type passTimers struct {
	at     [maxTimers]time.Duration // math.MaxInt64 when disarmed
	key    [maxTimers]uint64        // math.MaxUint64 when disarmed
	seq    uint64
	window time.Duration
}

// arm sets timer k to fire at at. A timer due past the window never
// fires in the pass, so it is disarmed, but it still takes its sequence
// number.
func (t *passTimers) arm(k int, at time.Duration) {
	if at > t.window {
		t.disarm(k)
	} else {
		t.at[k], t.key[k] = at, t.seq
	}
	t.seq++
}

func (t *passTimers) disarm(k int) {
	t.at[k], t.key[k] = math.MaxInt64, math.MaxUint64
}

// before reports whether timer j fires before timer k; a disarmed
// timer fires before none.
func (t *passTimers) before(j, k int) bool {
	// A 128-bit compare of (time, sequence), without branches.
	_, borrow := bits.Sub64(t.key[j], t.key[k], 0)
	_, borrow = bits.Sub64(uint64(t.at[j]), uint64(t.at[k]), borrow)
	return borrow != 0
}

// next returns the first of timers [lo, hi) to fire.
func (t *passTimers) next(lo, hi int) int {
	k := lo
	for j := lo + 1; j < hi; j++ {
		if t.before(j, k) {
			k = j
		}
	}
	return k
}

// channelPass is one channel's pass: its timers and its stations in
// attachment order.
type channelPass struct {
	passTimers
	st    [1 + maxBgStations]*mac.Station
	n     int // active stations
	onAir int // the transmitting station, -1 when the channel is idle
	mon   *monitor.Monitor
}

// enqueue hands f to station s's MAC at now, arming its access timer
// where the kernel path's Enqueue would schedule one.
//
//powifi:noalloc
func (p *channelPass) enqueue(s int, f *mac.Frame, now time.Duration) bool {
	ok, due := p.st[s].EnqueueAt(f, now, p.onAir >= 0 && p.onAir != s)
	p.armMAC(s, due)
	return ok
}

// armMAC arms station s's MAC timer at due; a negative due, where the
// kernel path arms no timer, takes no sequence number.
func (p *channelPass) armMAC(s int, due time.Duration) {
	if due >= 0 {
		p.arm(s, due)
	}
}

// access fires station s's DIFS or backoff timer at now: it arms the
// backoff countdown or starts a transmission, a busy edge for every
// other station.
//
//powifi:noalloc
func (p *channelPass) access(s int, now time.Duration) {
	due, onAir := p.st[s].FireAt(now)
	p.armMAC(s, due)
	if !onAir {
		return
	}
	p.onAir = s
	for j, st := range p.st[:p.n] {
		if j != s && st.BusyAt(now) {
			p.disarm(j)
		}
	}
}

// endTx ends station s's transmission at now: idle edges go to the
// other stations in attachment order, then the source retires the frame
// and the monitor records it if it is the router's.
//
//powifi:noalloc
func (p *channelPass) endTx(s int, now time.Duration) {
	p.onAir = -1
	for j, st := range p.st[:p.n] {
		if j != s {
			p.armMAC(j, st.IdleAt(now))
		}
	}
	due, bytes, rate := p.st[s].CompleteAt(now)
	p.arm(s, due)
	if s == 0 {
		p.mon.Record(bytes, rate, now)
	}
}

// pass runs channel i's window with the given number of active
// contenders and returns the pass's kernel event count.
//
// Every station on the channel senses every other one (NewSampler
// checks this) and every frame is broadcast, so the channel is one
// collision domain: at most one frame is on the air, none collides and
// every one decodes. The medium then reduces to carrier-sense edges: a
// transmission start is a busy edge for every other station, which
// freezes its DIFS or backoff; its end is an idle edge, which restarts
// a deferring station's DIFS, before the source retires the frame and
// the monitor records it if it is the router's. Delivery only counts
// received frames, which the sampler never reads, so it is skipped. The
// pass fires its timers in the kernel's (time, sequence) order through
// the MAC's shared transitions and the same objects and RNG streams the
// kernel path uses; TestSampleBinChannelPasses and
// FuzzSampleBinChannels certify it bit for bit against the kernel.
//
//powifi:noalloc
func (smp *Sampler) pass(i, contenders int, client bool, window time.Duration) uint64 {
	radio, in := smp.radios[i], smp.radios[i].Injector
	beacon := smp.rt.Cfg.BeaconInterval
	p := channelPass{
		passTimers: passTimers{window: window},
		n:          1 + contenders, onAir: -1, mon: smp.monitors[i],
	}
	sources := tInjector + p.n
	for k := range p.at[:sources] {
		p.disarm(k) // the timers next scans; the rest stay unused
	}
	p.st[0] = radio.MAC
	// Start-up as on the kernel path: the contenders' first arrivals, the
	// client feed, StartRadio's beacon timer, then the injector's first
	// send, which Injector.Start makes at once rather than as an event,
	// so the loop opens with it.
	for k, bg := range smp.bg[i][:contenders] {
		bg.Prime()
		p.st[1+k] = bg.Station
		p.arm(tInjector+1+k, bg.Gap())
	}
	if client {
		p.arm(tClient, smp.clientGap())
	}
	if beacon > 0 {
		p.arm(tBeacon, beacon)
	}
	k, now := tInjector, time.Duration(0)
	for {
		switch k {
		case tInjector:
			if f := in.Packet(); f != nil && p.enqueue(0, f, now) {
				in.Injected++
			}
			p.arm(k, now+in.NextDelay())
		case tClient:
			p.enqueue(0, clientFrame(p.st[0]), now)
			p.arm(k, now+smp.clientGap())
		case tBeacon:
			p.enqueue(0, radio.Beacon(), now)
			p.arm(k, now+beacon)
		default:
			bg := smp.bg[i][k-tInjector-1]
			p.enqueue(k-tInjector, bg.Frame(), now)
			p.arm(k, now+bg.Gap())
		}
		// MAC timers touch no source timer, so they run on until the
		// next source timer is due. While a frame is on the air, its end
		// is the only MAC timer armed.
		k = p.next(tClient, sources)
		for {
			s := p.onAir
			if s < 0 {
				s = p.next(0, p.n)
			}
			if !p.before(s, k) {
				break
			}
			now = p.at[s]
			p.disarm(s)
			if s == p.onAir {
				p.endTx(s, now)
			} else {
				p.access(s, now)
			}
		}
		if now = p.at[k]; now == math.MaxInt64 {
			return p.seq
		}
		p.disarm(k)
	}
}

// Package router implements the PoWiFi router of §3.2 — the paper's core
// networking contribution.
//
// A Router drives one 802.11 radio per 2.4 GHz channel (the prototype used
// three Atheros AR9580 chipsets on channels 1, 6 and 11). Each radio runs
// a power-packet injector, a user-space loop that sends 1500-byte UDP
// broadcast datagrams with a fixed inter-packet delay. The three kernel
// components of the paper's selective transmission mechanism map onto this
// package as follows:
//
//   - Power_Socket: Injector marks its datagrams as power traffic
//     (medium.KindPower — the analogue of the IP_Power IP option).
//   - Power_MACshim: Injector reads the radio's transmit-queue depth
//     through mac.Station.QueueLen.
//   - IP_Power: the per-packet decision in inject() drops the datagram
//     before it reaches the MAC when the queue depth is at or above the
//     threshold.
//
// The package also implements the paper's comparison schemes: Baseline
// (no injection), BlindUDP (1 Mbps saturation), NoQueue (54 Mbps without
// the queue check) and EqualShare (power packets at the neighbor's rate,
// Fig. 8's fairness baseline).
package router

import (
	"fmt"
	"time"

	"repro/internal/eventsim"
	"repro/internal/mac"
	"repro/internal/medium"
	"repro/internal/phy"
	"repro/internal/xrand"
)

// Scheme is a router transmission policy from §4.1.
type Scheme int

// The schemes compared throughout the paper's evaluation.
const (
	// Baseline disables power traffic entirely.
	Baseline Scheme = iota
	// PoWiFi injects 54 Mbps broadcast power packets gated by the
	// transmit-queue depth threshold.
	PoWiFi
	// NoQueue injects 54 Mbps power packets without the queue check.
	NoQueue
	// BlindUDP saturates the channel with 1 Mbps broadcast traffic.
	BlindUDP
	// EqualShare transmits power packets at the same bit rate as the
	// neighboring network under test (Fig. 8).
	EqualShare
)

// String returns the paper's name for the scheme.
func (s Scheme) String() string {
	switch s {
	case Baseline:
		return "Baseline"
	case PoWiFi:
		return "PoWiFi"
	case NoQueue:
		return "NoQueue"
	case BlindUDP:
		return "BlindUDP"
	case EqualShare:
		return "EqualShare"
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// Config parameterizes a Router.
type Config struct {
	// Scheme selects the transmission policy.
	Scheme Scheme
	// Channels lists the channels to inject power traffic on.
	Channels []phy.Channel
	// TxPowerDBm is the per-radio transmit power (30 dBm prototype).
	TxPowerDBm float64
	// AntennaGainDBi is the per-radio antenna gain (6 dBi prototype).
	AntennaGainDBi float64
	// InterPacketDelay is the injector's user-space pacing (100 µs).
	InterPacketDelay time.Duration
	// QueueDepthThreshold is the IP_Power drop threshold (5 frames).
	QueueDepthThreshold int
	// PowerPacketBytes is the broadcast datagram size (1500 bytes).
	PowerPacketBytes int
	// EqualShareRate is the power-packet rate under EqualShare.
	EqualShareRate phy.Rate
	// Location places the router.
	Location medium.Location
	// BeaconInterval spaces the AP beacons every radio transmits
	// regardless of scheme (102.4 ms per the 802.11 default; 0 disables).
	// Beacons matter to harvesting: §3.2 notes the harvester draws power
	// from "beacon transmissions" just like any other frame.
	BeaconInterval time.Duration
	// SleepJitter is the standard deviation of user-space timer jitter as
	// a fraction of the inter-packet delay (OS scheduling noise).
	SleepJitter float64
	// UserWakeCost is the mean extra latency (exponentially distributed)
	// between the injector's timer firing and its packet reaching the
	// transmit queue: scheduler wakeup plus the Power_MACshim queue-depth
	// query round trip. This is why queue-depth thresholds below five
	// lose occupancy in Fig. 5 — the user-space program cannot refill a
	// nearly-empty queue fast enough.
	UserWakeCost time.Duration
}

// DefaultConfig returns the paper's operating point: PoWiFi on channels
// 1/6/11, 30 dBm, 6 dBi, 100 µs inter-packet delay, queue threshold 5,
// 1500-byte packets.
func DefaultConfig() Config {
	return Config{
		Scheme:              PoWiFi,
		Channels:            phy.PoWiFiChannels,
		TxPowerDBm:          30,
		AntennaGainDBi:      6,
		InterPacketDelay:    100 * time.Microsecond,
		QueueDepthThreshold: 5,
		PowerPacketBytes:    1500,
		BeaconInterval:      102400 * time.Microsecond,
		EqualShareRate:      phy.Rate54Mbps,
		SleepJitter:         0.1,
		UserWakeCost:        60 * time.Microsecond,
	}
}

// Radio is one channel's chipset: a MAC station plus its injector.
type Radio struct {
	Channel  phy.Channel
	MAC      *mac.Station
	Injector *Injector

	sched          *eventsim.Scheduler
	beaconOn       bool
	beaconEv       eventsim.Handle
	beaconInterval time.Duration
	beaconFn       func(any) // long-lived tick; no closure per arming

	// Cached label strings so a pooled router reseeds its per-channel
	// streams without re-concatenating (or re-formatting) labels.
	rngLabel, injLabel string
}

// Router is a PoWiFi router instance.
type Router struct {
	Cfg    Config
	Sched  *eventsim.Scheduler
	Radios map[phy.Channel]*Radio

	// radios lists the radios in cfg.Channels order; Start, Stop and
	// Reset iterate it so pooled and fresh routers schedule their
	// per-channel kick-off events in the same deterministic order.
	radios []*Radio
}

// New builds a router attached to the given channel media. ids assigns a
// distinct station ID per channel (channels have independent ID spaces, so
// the same ID may be reused; the helper keeps them unique anyway).
func New(cfg Config, sched *eventsim.Scheduler, channels map[phy.Channel]*medium.Channel, baseID int, seed uint64) *Router {
	r := &Router{Cfg: cfg, Sched: sched, Radios: make(map[phy.Channel]*Radio)}
	for i, chNum := range cfg.Channels {
		chMedium, exists := channels[chNum]
		if !exists {
			continue
		}
		rngLabel := "router/" + chNum.String()
		injLabel := "injector/" + chNum.String()
		rng := xrand.NewFromLabel(seed, rngLabel)
		station := mac.NewStation(baseID+i, "router-"+chNum.String(), cfg.Location, chMedium, rng)
		station.PowerDBm = cfg.TxPowerDBm
		station.GainDBi = cfg.AntennaGainDBi
		// The client-facing interface runs fair queueing between client
		// and power flows, as mac80211's fq_codel does on real routers.
		station.Qdisc = mac.NewFairQueue(100)
		radio := &Radio{Channel: chNum, MAC: station, sched: sched, rngLabel: rngLabel, injLabel: injLabel}
		radio.Injector = &Injector{
			Sched:     sched,
			MAC:       station,
			Cfg:       cfg,
			Rate:      r.powerRate(),
			rng:       xrand.NewFromLabel(seed, injLabel),
			CheckQLen: cfg.Scheme == PoWiFi,
		}
		r.Radios[chNum] = radio
		r.radios = append(r.radios, radio)
	}
	return r
}

// Reset returns the router to its just-built state under a new seed:
// every radio's MAC and injector rewind to idle with zeroed counters and
// their RNG streams reseed in place, exactly as New(cfg, ..., seed)
// would produce. The scheduler and channels must be reset alongside by
// the pooling layer.
func (r *Router) Reset(seed uint64) {
	for _, radio := range r.radios {
		radio.MAC.Reset()
		radio.MAC.RNG().ReseedFromLabel(seed, radio.rngLabel)
		radio.beaconOn = false
		radio.beaconEv = eventsim.Handle{}
		in := radio.Injector
		in.rng.ReseedFromLabel(seed, radio.injLabel)
		in.running = false
		in.stopEv = eventsim.Handle{}
		in.Attempted = 0
		in.DroppedByIPPower = 0
		in.Injected = 0
	}
}

// powerRate returns the bit rate for power packets under the configured
// scheme.
func (r *Router) powerRate() phy.Rate {
	switch r.Cfg.Scheme {
	case BlindUDP:
		return phy.Rate1Mbps
	case EqualShare:
		return r.Cfg.EqualShareRate
	default:
		return phy.Rate54Mbps
	}
}

// Start launches the beacons on every radio and, except under Baseline,
// the power injectors, radio by radio in Config.Channels order.
func (r *Router) Start() {
	for i := range r.radios {
		r.StartRadio(i)
	}
}

// StartRadio launches radio i's beacons and, except under Baseline, its
// power injector; i indexes the radios in Config.Channels order,
// skipping channels New found no medium for. Radios share no state, so
// a caller that simulates each channel in its own scheduler pass starts
// only that channel's radio.
func (r *Router) StartRadio(i int) {
	radio := r.radios[i]
	radio.startBeacons(r.Cfg.BeaconInterval)
	if r.Cfg.Scheme != Baseline {
		radio.Injector.Start()
	}
}

// startBeacons arms the radio's periodic beacon transmission: a 100-byte
// management frame at the 6 Mbps basic rate. The tick callback is bound
// once and re-arms itself, so steady-state beaconing allocates nothing.
func (radio *Radio) startBeacons(interval time.Duration) {
	if interval <= 0 || radio.beaconOn {
		return
	}
	radio.beaconOn = true
	radio.beaconInterval = interval
	if radio.beaconFn == nil {
		radio.beaconFn = func(any) {
			if !radio.beaconOn {
				return
			}
			f := radio.MAC.NewFrame()
			f.DstID = medium.Broadcast
			f.Bytes = 100
			f.Kind = medium.KindBeacon
			f.FixedRate = phy.Rate6Mbps
			radio.MAC.Enqueue(f)
			if radio.beaconOn {
				radio.beaconEv = radio.sched.AfterCtx(radio.beaconInterval, radio.beaconFn, nil)
			}
		}
	}
	radio.beaconEv = radio.sched.AfterCtx(interval, radio.beaconFn, nil)
}

// Stop halts the injectors and beacons.
func (r *Router) Stop() {
	for _, radio := range r.radios {
		radio.Injector.Stop()
		radio.beaconOn = false
		radio.beaconEv.Cancel()
		radio.beaconEv = eventsim.Handle{}
	}
}

// Radio returns the radio on the given channel, or nil.
func (r *Router) Radio(ch phy.Channel) *Radio {
	return r.Radios[ch]
}

// Injector is the user-space power-packet program plus the IP-layer
// IP_Power decision of §3.2.
type Injector struct {
	Sched *eventsim.Scheduler
	MAC   *mac.Station
	Cfg   Config
	// Rate is the bit rate power packets are transmitted at.
	Rate phy.Rate
	// CheckQLen enables the IP_Power queue-depth check.
	CheckQLen bool

	rng     *xrand.Rand
	running bool
	stopEv  eventsim.Handle
	loopFn  func(any) // long-lived injection loop; no closure per bin

	// Attempted counts user-space send calls; DroppedByIPPower counts
	// packets dropped by the queue-threshold check (the error code
	// returned to user space); Injected counts packets that reached the
	// transmit queue.
	Attempted        int
	DroppedByIPPower int
	Injected         int
}

// Start begins the injection loop.
func (in *Injector) Start() {
	if in.running {
		return
	}
	in.running = true
	if in.loopFn == nil {
		in.loopFn = func(any) {
			if !in.running {
				return
			}
			in.inject()
			delay := in.Cfg.InterPacketDelay
			if in.Cfg.SleepJitter > 0 {
				j := in.rng.Normal(0, in.Cfg.SleepJitter*float64(delay))
				delay += time.Duration(j)
			}
			if in.Cfg.UserWakeCost > 0 {
				delay += time.Duration(in.rng.Exp(float64(in.Cfg.UserWakeCost)))
			}
			if delay < 10*time.Microsecond {
				delay = 10 * time.Microsecond
			}
			in.stopEv = in.Sched.AfterCtx(delay, in.loopFn, nil)
		}
	}
	in.loopFn(nil)
}

// Stop halts the injection loop.
func (in *Injector) Stop() {
	in.running = false
	in.stopEv.Cancel()
	in.stopEv = eventsim.Handle{}
}

// inject performs one user-space send: the IP_Power check followed by the
// MAC enqueue.
func (in *Injector) inject() {
	in.Attempted++
	if in.CheckQLen && in.MAC.QueueLen() >= in.Cfg.QueueDepthThreshold {
		// ip_local_out_sk: enough packets queued already; drop the power
		// packet and return the error to user space.
		in.DroppedByIPPower++
		return
	}
	f := in.MAC.NewFrame()
	f.DstID = medium.Broadcast
	f.Bytes = in.Cfg.PowerPacketBytes
	f.Kind = medium.KindPower
	f.FixedRate = in.Rate
	if in.MAC.Enqueue(f) {
		in.Injected++
	}
}

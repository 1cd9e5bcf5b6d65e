// Package traffic generates the workloads of the paper's evaluation:
// background office/home Wi-Fi load, iperf-style UDP and TCP downloads
// through the router (Fig. 6a/6b), and the PhantomJS-style page-load
// harness over the ten most popular U.S. websites (Fig. 6c).
package traffic

import (
	"time"

	"repro/internal/eventsim"
	"repro/internal/mac"
	"repro/internal/medium"
	"repro/internal/phy"
	"repro/internal/xrand"
)

// Background simulates a neighboring Wi-Fi network's offered load on a
// channel: a station emitting frames with Poisson arrivals, mixed sizes
// and rates, targeting a given fraction of channel airtime. The paper's
// benchmark environment is "a busy weekday in our organization, which has
// multiple other clients and routers operating on channels 1, 6, and 11"
// (§4.1).
type Background struct {
	Sched *eventsim.Scheduler
	// Station transmits the background frames.
	Station *mac.Station
	// Load is the offered airtime fraction (0.3 = 30% of the channel).
	Load float64

	rng    *xrand.Rand
	feed   eventsim.Handle
	mean   float64
	fireFn func(any) // long-lived arrival callback; no closure per packet
}

// frameProfile is one entry of the background traffic mix.
type frameProfile struct {
	bytes  int
	rate   phy.Rate
	weight float64
}

// officeMix approximates the frame mix of a production 2.4 GHz network:
// mostly full-size data at mid-to-high OFDM rates, plus small frames.
var officeMix = []frameProfile{
	{1500, phy.Rate54Mbps, 0.25},
	{1500, phy.Rate36Mbps, 0.20},
	{1500, phy.Rate24Mbps, 0.15},
	{1500, phy.Rate12Mbps, 0.10},
	{300, phy.Rate24Mbps, 0.15},
	{90, phy.Rate24Mbps, 0.15},
}

// NewBackground attaches a background load generator to a channel at the
// given location.
func NewBackground(sched *eventsim.Scheduler, ch *medium.Channel, id int, loc medium.Location, load float64, rng *xrand.Rand) *Background {
	st := mac.NewStation(id, "bg", loc, ch, rng)
	st.PowerDBm = 20
	st.GainDBi = 2
	return &Background{Sched: sched, Station: st, Load: load, rng: rng}
}

// draw picks a frame from the mix.
func (b *Background) draw() frameProfile {
	u := b.rng.Float64()
	acc := 0.0
	for _, p := range officeMix {
		acc += p.weight
		if u < acc {
			return p
		}
	}
	return officeMix[len(officeMix)-1]
}

// mixAirtime is the expectation of the mix's frame airtime.
var mixAirtime = func() time.Duration {
	var sum float64
	for _, p := range officeMix {
		sum += p.weight * float64(phy.Airtime(p.bytes+phy.MACOverheadBytes, p.rate))
	}
	return time.Duration(sum)
}()

// Start begins offering load. The generator clocks frame arrivals as a
// Poisson process whose mean inter-arrival yields the target airtime
// fraction. The arrival callback and the frames it enqueues are pooled,
// so a running generator allocates nothing per packet.
func (b *Background) Start() {
	if !b.Prime() {
		return
	}
	if b.fireFn == nil {
		b.fireFn = func(any) {
			b.Station.Enqueue(b.Frame())
			b.arm()
		}
	}
	b.arm()
}

// Prime readies the generator to offer its current Load and reports
// whether it offers any. Start primes it; a caller that clocks the
// arrivals itself primes it and then draws each arrival's Gap and Frame
// in Start's order: the first gap, then per arrival the frame and the
// next gap.
func (b *Background) Prime() bool {
	if b.Load <= 0 {
		return false
	}
	b.mean = float64(mixAirtime) / b.Load
	return true
}

// Gap draws the time to the next Poisson arrival.
func (b *Background) Gap() time.Duration {
	return time.Duration(b.rng.Exp(b.mean))
}

// Frame draws the next frame from the mix, from the station's pool.
// Broadcast keeps the generator self-contained (no ACK peer needed);
// occupancy contribution is identical.
func (b *Background) Frame() *mac.Frame {
	p := b.draw()
	f := b.Station.NewFrame()
	f.DstID = medium.Broadcast
	f.Bytes = p.bytes
	f.Kind = medium.KindData
	f.FixedRate = p.rate
	return f
}

// arm schedules the next Poisson arrival.
func (b *Background) arm() {
	b.feed = b.Sched.AfterCtx(b.Gap(), b.fireFn, nil)
}

// Stop halts the generator.
func (b *Background) Stop() {
	b.feed.Cancel()
	b.feed = eventsim.Handle{}
}

// RNG returns the generator's random stream, so a pooling layer can
// reseed it in place between runs.
func (b *Background) RNG() *xrand.Rand { return b.rng }

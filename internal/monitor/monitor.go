// Package monitor reproduces the paper's measurement methodology (§4):
// a monitor-mode interface capturing every frame on a channel (airmon-ng +
// tcpdump), post-processed into channel occupancy
//
//	occupancy = Σ_i size_i/rate_i / total_duration
//
// over the frames sent by the router (tshark filtering by transmitter),
// exactly the formula the paper states. Records accumulate into fixed
// bins so day-long home deployments (60 s resolution, Fig. 14) and
// 500 ms-interval benchmark runs (Fig. 7) use the same machinery.
package monitor

import (
	"time"

	"repro/internal/medium"
	"repro/internal/phy"
	"repro/internal/stats"
)

// Monitor computes channel occupancy from captured frames.
type Monitor struct {
	// BinWidth is the occupancy sampling resolution.
	BinWidth time.Duration

	ch     *medium.Channel
	filter []int // transmitter station IDs to count; empty = all. A
	// monitor filters on one or two radios, so a linear scan beats a map
	// on the per-frame capture path.
	bins     []time.Duration
	total    time.Duration
	started  time.Duration
	captured int

	// One-entry airtime memo: captures are dominated by a run's one or
	// two (size, rate) combinations, and the duration division is pure.
	lastBytes int
	lastRate  phy.Rate
	lastOnAir time.Duration
}

// New attaches a monitor to a channel. srcIDs restricts the capture to
// specific transmitter station IDs (the router's radios); pass none to
// capture everything on the channel.
func New(ch *medium.Channel, binWidth time.Duration, srcIDs ...int) *Monitor {
	m := &Monitor{
		BinWidth: binWidth,
		ch:       ch,
		started:  ch.Sched.Now(),
	}
	m.filter = append(m.filter, srcIDs...)
	ch.Observers = append(ch.Observers, m.capture)
	return m
}

// passes reports whether the transmitter is in the capture filter.
func (m *Monitor) passes(id int) bool {
	for _, want := range m.filter {
		if want == id {
			return true
		}
	}
	return false
}

// capture records one completed transmission.
func (m *Monitor) capture(tx *medium.Transmission) {
	if len(m.filter) > 0 && !m.passes(tx.Src.StationID()) {
		return
	}
	m.Record(tx.Bytes, tx.Rate, tx.End)
}

// Record accounts one captured frame of bytes (the full MAC frame
// length) sent at rate and ending at end. It is capture's accounting
// without the transmission, for a caller that runs a channel without
// the medium; the caller applies the source filter itself.
func (m *Monitor) Record(bytes int, rate phy.Rate, end time.Duration) {
	m.captured++
	// The paper computes size/rate from the radiotap headers, which
	// excludes the PLCP preamble; do the same. bytes·8/Mbps gives
	// microseconds on the air.
	if bytes != m.lastBytes || rate != m.lastRate {
		m.lastBytes, m.lastRate = bytes, rate
		m.lastOnAir = time.Duration(float64(bytes*8)/rate.Mbps()*1000) * time.Nanosecond
	}
	onAir := m.lastOnAir
	m.total += onAir
	bin := int((end - m.started) / m.BinWidth)
	for bin >= len(m.bins) {
		m.bins = append(m.bins, 0)
	}
	m.bins[bin] += onAir
}

// Captured returns the number of frames recorded.
func (m *Monitor) Captured() int { return m.captured }

// Reset discards all captured state and restarts the capture at the
// channel's current (typically just-reset) virtual time, keeping the
// observer attachment, source filter and bin storage. A reset monitor
// reports identically to one freshly attached at the same instant.
func (m *Monitor) Reset() {
	m.started = m.ch.Sched.Now()
	m.bins = m.bins[:0]
	m.total = 0
	m.captured = 0
}

// MeanOccupancy returns total captured airtime divided by the elapsed
// capture duration, as a fraction (0.55 = 55%).
func (m *Monitor) MeanOccupancy() float64 {
	elapsed := m.ch.Sched.Now() - m.started
	if elapsed <= 0 {
		return 0
	}
	return float64(m.total) / float64(elapsed)
}

// BinOccupancies returns the per-bin occupancy fractions for all complete
// bins.
func (m *Monitor) BinOccupancies() []float64 {
	elapsed := m.ch.Sched.Now() - m.started
	complete := int(elapsed / m.BinWidth)
	out := make([]float64, complete)
	for i := 0; i < complete; i++ {
		if i < len(m.bins) {
			out[i] = float64(m.bins[i]) / float64(m.BinWidth)
		}
		// Bins with no captured frames stay at zero occupancy.
	}
	return out
}

// OccupancyCDF returns the empirical CDF of per-bin occupancy percentages
// (0–100+), the form Figs. 7 and 15 plot.
func (m *Monitor) OccupancyCDF() *stats.CDF {
	bins := m.BinOccupancies()
	pct := make([]float64, len(bins))
	for i, b := range bins {
		pct[i] = b * 100
	}
	return stats.NewCDF(pct)
}

// CumulativeBins sums per-bin occupancy percentages across several
// monitors (the paper's "cumulative occupancy" across channels 1/6/11,
// which can exceed 100%).
func CumulativeBins(monitors ...*Monitor) []float64 {
	n := 0
	for _, m := range monitors {
		if b := len(m.BinOccupancies()); b > n {
			n = b
		}
	}
	out := make([]float64, n)
	for _, m := range monitors {
		for i, v := range m.BinOccupancies() {
			out[i] += v * 100
		}
	}
	return out
}

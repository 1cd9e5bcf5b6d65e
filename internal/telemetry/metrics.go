package telemetry

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/stats"
)

// Counter is a monotonically increasing uint64. Increments are single
// atomic adds — safe from any worker, and because integer addition is
// commutative the total is exactly the same however the work was
// sharded. A nil *Counter (telemetry disabled) ignores every call and
// reads as zero.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
//
//powifi:noalloc
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
//
//powifi:noalloc
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current total (zero on a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-write-wins float64, stored as atomic bits so a
// mid-run HTTP snapshot never reads a torn value. A nil *Gauge ignores
// every call and reads as zero.
type Gauge struct {
	bits atomic.Uint64
}

// Set records the value.
//
//powifi:noalloc
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the last value set (zero on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a mutex-guarded stats.Sketch. The per-home work
// histograms are observed only at the fleet reducer's commit point (see
// CommitHome), in home-index order; the lock makes that safe against
// concurrent snapshots (a mid-run metrics scrape).
type Histogram struct {
	mu sync.Mutex
	s  *stats.Sketch
}

// Observe records one sample. No-op on a nil histogram.
//
//powifi:noalloc
func (h *Histogram) Observe(x float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.s.Add(x)
	h.mu.Unlock()
}

// snapshot summarizes the histogram's sketch.
func (h *Histogram) snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return summarize(h.s)
}

// summarize renders a sketch's summary; the zero HistogramSnapshot
// stands in for an empty sketch (its Min/Max/quantiles are NaN, which
// neither JSON nor the text exports can carry).
func summarize(s *stats.Sketch) HistogramSnapshot {
	if s.N() == 0 {
		return HistogramSnapshot{}
	}
	under, over := s.OutOfRange()
	return HistogramSnapshot{
		N:         s.N(),
		Mean:      s.Mean(),
		Min:       s.Min(),
		Max:       s.Max(),
		P50:       s.Quantile(0.50),
		P95:       s.Quantile(0.95),
		P99:       s.Quantile(0.99),
		Underflow: under,
		Overflow:  over,
	}
}

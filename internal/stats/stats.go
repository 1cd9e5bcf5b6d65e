// Package stats provides the summary statistics used by the experiment
// harness: empirical CDFs (every occupancy and throughput figure in the
// paper is a CDF), percentiles, means, fixed-width time series for the
// 24-hour deployment logs, and the fleet aggregates: the mergeable
// quantile Sketch and the Welford running mean/variance.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(xs)))
}

// Min returns the minimum of xs, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// CDF is an empirical cumulative distribution function over a sample.
// It is immutable once built.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from the sample xs. The input slice is
// copied, so the caller may reuse it.
func NewCDF(xs []float64) *CDF {
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// N returns the number of samples behind the CDF.
func (c *CDF) N() int { return len(c.sorted) }

// At returns P(X <= x), the fraction of samples at or below x.
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	// First index with value > x.
	idx := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(len(c.sorted))
}

// Quantile returns the q-th quantile (0 <= q <= 1) by linear interpolation
// between order statistics. Quantile(0.5) is the median.
func (c *CDF) Quantile(q float64) float64 {
	n := len(c.sorted)
	if n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return c.sorted[lo]
	}
	frac := pos - float64(lo)
	return c.sorted[lo]*(1-frac) + c.sorted[hi]*frac
}

// Mean returns the sample mean.
func (c *CDF) Mean() float64 { return Mean(c.sorted) }

// Points returns up to n evenly spaced (value, cumulative-fraction) points
// suitable for plotting or printing a CDF curve. The final point is always
// (max, 1).
func (c *CDF) Points(n int) []Point {
	if len(c.sorted) == 0 || n <= 0 {
		return nil
	}
	if n > len(c.sorted) {
		n = len(c.sorted)
	}
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		idx := (i * (len(c.sorted) - 1)) / maxInt(n-1, 1)
		pts = append(pts, Point{
			X: c.sorted[idx],
			Y: float64(idx+1) / float64(len(c.sorted)),
		})
	}
	return pts
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Point is a generic (x, y) sample used for curves and series.
type Point struct {
	X, Y float64
}

// TimeSeries accumulates (time, value) samples in fixed-width bins, as used
// by the 24-hour home-deployment occupancy logs (60 s resolution in the
// paper). Values within a bin are averaged.
type TimeSeries struct {
	BinWidth float64 // seconds per bin
	sums     []float64
	counts   []int
}

// NewTimeSeries creates a time series with the given bin width (seconds)
// covering [0, horizon) seconds.
func NewTimeSeries(binWidth, horizon float64) *TimeSeries {
	if binWidth <= 0 || horizon <= 0 {
		panic("stats: non-positive time series dimensions")
	}
	n := int(math.Ceil(horizon / binWidth))
	return &TimeSeries{
		BinWidth: binWidth,
		sums:     make([]float64, n),
		counts:   make([]int, n),
	}
}

// Add records a sample at time t (seconds). Samples outside the horizon are
// ignored.
func (ts *TimeSeries) Add(t, v float64) {
	if t < 0 {
		return
	}
	bin := int(t / ts.BinWidth)
	if bin >= len(ts.sums) {
		return
	}
	ts.sums[bin] += v
	ts.counts[bin]++
}

// NumBins returns the number of bins in the series.
func (ts *TimeSeries) NumBins() int { return len(ts.sums) }

// Bin returns the mean value of bin i and whether the bin has any samples.
func (ts *TimeSeries) Bin(i int) (float64, bool) {
	if i < 0 || i >= len(ts.sums) || ts.counts[i] == 0 {
		return 0, false
	}
	return ts.sums[i] / float64(ts.counts[i]), true
}

// Values returns the per-bin means; empty bins yield 0.
func (ts *TimeSeries) Values() []float64 {
	out := make([]float64, len(ts.sums))
	for i := range ts.sums {
		if ts.counts[i] > 0 {
			out[i] = ts.sums[i] / float64(ts.counts[i])
		}
	}
	return out
}

// MeanOfNonEmpty returns the mean over bins that contain samples.
func (ts *TimeSeries) MeanOfNonEmpty() float64 {
	sum, n := 0.0, 0
	for i := range ts.sums {
		if ts.counts[i] > 0 {
			sum += ts.sums[i] / float64(ts.counts[i])
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

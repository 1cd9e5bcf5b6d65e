// Mergeable aggregates for fleet runs. A fleet-scale run splits its
// homes across workers and folds each home's results in home-index
// order. Two kinds are provided:
//
//   - Sketch, a fixed-resolution quantile/CDF sketch whose state is
//     integer bin counts plus exact extremes. Integer addition is
//     associative and commutative, so merging sketches in any order is
//     bit-for-bit identical to building one sketch from the
//     concatenated sample.
//
//   - Welford, a running mean/variance. Floating-point accumulation is
//     order-sensitive, so callers that need bit-for-bit reproducibility
//     across worker counts must feed it in a fixed order — the fleet
//     reducer Adds per-home scalar summaries in home-index order via
//     its reorder buffer, never from a worker-dependent order.
package stats

import (
	"fmt"
	"math"
)

// Welford is a running mean/variance accumulator. The zero value is an
// empty accumulator ready for use.
type Welford struct {
	N    uint64
	Mean float64
	M2   float64
}

// Add folds one sample into the accumulator.
func (w *Welford) Add(x float64) {
	w.N++
	delta := x - w.Mean
	w.Mean += delta / float64(w.N)
	w.M2 += delta * (x - w.Mean)
}

// Variance returns the population variance, or 0 with fewer than two
// samples.
func (w *Welford) Variance() float64 {
	if w.N < 2 {
		return 0
	}
	return w.M2 / float64(w.N)
}

// StdDev returns the population standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Sketch is a mergeable fixed-resolution quantile sketch over [Lo, Hi).
// Samples land in equal-width integer-count bins; values outside the
// range are tracked in underflow/overflow counters, and the exact
// minimum and maximum are kept so extreme quantiles stay sharp. All
// derived quantities (quantiles, CDF points, mean) are computed from
// the bin counts alone, so any merge order over the same samples yields
// identical output.
type Sketch struct {
	Lo, Hi float64
	Counts []uint64
	under  uint64
	over   uint64
	minV   float64
	maxV   float64
	n      uint64
}

// NewSketch creates a sketch with the given bounds and bin count. It
// panics if hi <= lo or bins <= 0.
func NewSketch(lo, hi float64, bins int) *Sketch {
	if hi <= lo || bins <= 0 {
		panic(fmt.Sprintf("stats: invalid sketch bounds [%v,%v) bins=%d", lo, hi, bins))
	}
	return &Sketch{Lo: lo, Hi: hi, Counts: make([]uint64, bins)}
}

// Add records one sample.
func (s *Sketch) Add(x float64) {
	if s.n == 0 || x < s.minV {
		s.minV = x
	}
	if s.n == 0 || x > s.maxV {
		s.maxV = x
	}
	s.n++
	switch {
	case x < s.Lo:
		s.under++
	case x >= s.Hi:
		s.over++
	default:
		bin := int((x - s.Lo) / (s.Hi - s.Lo) * float64(len(s.Counts)))
		if bin >= len(s.Counts) { // float rounding at the upper edge
			bin = len(s.Counts) - 1
		}
		s.Counts[bin]++
	}
}

// Merge folds another sketch into this one. Both sketches must share
// bounds and bin count; Merge panics otherwise, since silently mixing
// incompatible resolutions would corrupt every derived quantile.
// TryMerge is the error-returning form for reducers that handle the
// mismatch instead of crashing.
func (s *Sketch) Merge(o *Sketch) {
	if err := s.TryMerge(o); err != nil {
		panic(err.Error())
	}
}

// TryMerge folds another sketch into this one, returning an explicit
// error when the configurations differ (bounds or bin count): mixing
// incompatible resolutions would corrupt every derived quantile, so it
// must never happen silently. On error the receiver is unchanged.
func (s *Sketch) TryMerge(o *Sketch) error {
	if s.Lo != o.Lo || s.Hi != o.Hi || len(s.Counts) != len(o.Counts) {
		return fmt.Errorf("stats: merging incompatible sketches [%v,%v)x%d and [%v,%v)x%d",
			s.Lo, s.Hi, len(s.Counts), o.Lo, o.Hi, len(o.Counts))
	}
	if o.n == 0 {
		return nil
	}
	if s.n == 0 || o.minV < s.minV {
		s.minV = o.minV
	}
	if s.n == 0 || o.maxV > s.maxV {
		s.maxV = o.maxV
	}
	s.n += o.n
	s.under += o.under
	s.over += o.over
	for i, c := range o.Counts {
		s.Counts[i] += c
	}
	return nil
}

// N returns the number of samples recorded.
func (s *Sketch) N() uint64 { return s.n }

// OutOfRange returns the underflow and overflow counts.
func (s *Sketch) OutOfRange() (under, over uint64) { return s.under, s.over }

// Min returns the exact minimum sample, or NaN if empty.
func (s *Sketch) Min() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.minV
}

// Max returns the exact maximum sample, or NaN if empty.
func (s *Sketch) Max() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.maxV
}

// binWidth returns the width of one bin.
func (s *Sketch) binWidth() float64 { return (s.Hi - s.Lo) / float64(len(s.Counts)) }

// Quantile returns the q-th quantile (0 <= q <= 1), linearly
// interpolated within the containing bin and clamped to the exact
// observed extremes. Accuracy is bounded by the bin width. Returns NaN
// for an empty sketch.
//
// Degenerate inputs follow an exact-extremes convention: when no
// sample landed in range (all mass in the underflow/overflow
// counters, as a badly-bounded or coarse-tier subsampled sketch can
// produce), the sketch has no shape information, so ranks inside the
// underflow mass return Min and everything past it returns Max — never
// NaN, and never a fabricated in-range value.
func (s *Sketch) Quantile(q float64) float64 {
	if s.n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return s.minV
	}
	if q >= 1 {
		return s.maxV
	}
	rank := q * float64(s.n-1)
	cum := float64(s.under)
	if rank < cum {
		return s.minV
	}
	w := s.binWidth()
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		fc := float64(c)
		if rank < cum+fc {
			x := s.Lo + w*(float64(i)+(rank-cum)/fc)
			if x < s.minV {
				x = s.minV
			}
			if x > s.maxV {
				x = s.maxV
			}
			return x
		}
		cum += fc
	}
	return s.maxV
}

// Mean returns the sketch's approximate mean: bin midpoints weighted by
// count, with out-of-range samples contributing the exact extremes.
// An empty sketch returns 0 (not NaN — aggregate report rows render
// zeros, not NaNs, for absent populations). With zero in-range counts
// the mean is the count-weighted blend of the two exact extremes.
func (s *Sketch) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	w := s.binWidth()
	sum := float64(s.under)*s.minV + float64(s.over)*s.maxV
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		sum += float64(c) * (s.Lo + w*(float64(i)+0.5))
	}
	return sum / float64(s.n)
}

// StdDev returns the approximate standard deviation from bin midpoints
// weighted by count, with out-of-range samples contributing the exact
// extremes. Accuracy is bounded by the bin width. Fewer than two
// samples return 0. With zero in-range counts the spread degenerates
// to the two-point {Min, Max} distribution — in particular 0 when all
// mass fell on one side, because the per-side detail was never kept.
func (s *Sketch) StdDev() float64 {
	if s.n < 2 {
		return 0
	}
	m := s.Mean()
	w := s.binWidth()
	sum := float64(s.under)*(s.minV-m)*(s.minV-m) + float64(s.over)*(s.maxV-m)*(s.maxV-m)
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		d := s.Lo + w*(float64(i)+0.5) - m
		sum += float64(c) * d * d
	}
	return math.Sqrt(sum / float64(s.n))
}

// Points returns up to n (value, cumulative-fraction) points of the
// empirical CDF, ending at (Max, 1). Non-empty bins map to their upper
// edge; the sequence is monotone in both coordinates. An empty sketch
// (or n <= 0) returns nil — callers plot nothing rather than a
// degenerate curve. A sketch whose samples all fell below Lo still
// ends at (Max, 1): the underflow mass is pinned at (Min, fraction)
// and the curve closes at the exact maximum.
func (s *Sketch) Points(n int) []Point {
	if s.n == 0 || n <= 0 {
		return nil
	}
	w := s.binWidth()
	var pts []Point
	cum := s.under
	if s.under > 0 {
		pts = append(pts, Point{X: s.minV, Y: float64(cum) / float64(s.n)})
	}
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		cum += c
		x := s.Lo + w*float64(i+1)
		if x > s.maxV {
			x = s.maxV
		}
		pts = append(pts, Point{X: x, Y: float64(cum) / float64(s.n)})
	}
	if len(pts) == 0 || pts[len(pts)-1].Y < 1 || pts[len(pts)-1].X < s.maxV {
		// The X check closes the all-underflow curve: its single pinned
		// point (Min, 1) already has Y = 1 but is not the maximum.
		pts = append(pts, Point{X: s.maxV, Y: 1})
	}
	if len(pts) <= n {
		return pts
	}
	if n == 1 {
		return []Point{pts[len(pts)-1]}
	}
	out := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, pts[i*(len(pts)-1)/(n-1)])
	}
	return out
}

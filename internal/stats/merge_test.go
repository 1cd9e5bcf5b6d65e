package stats

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// sample draws n values from a mix of distributions so sketches see
// in-range, underflow and overflow samples.
func sample(r *xrand.Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		switch r.Intn(3) {
		case 0:
			xs[i] = r.Uniform(-20, 120)
		case 1:
			xs[i] = r.Normal(50, 30)
		default:
			xs[i] = r.Exp(40)
		}
	}
	return xs
}

func sketchOf(xs []float64) *Sketch {
	s := NewSketch(0, 100, 64)
	for _, x := range xs {
		s.Add(x)
	}
	return s
}

func TestWelfordMatchesDirectMoments(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	if math.Abs(w.Mean-Mean(xs)) > 1e-12 {
		t.Errorf("Welford mean = %v, want %v", w.Mean, Mean(xs))
	}
	if math.Abs(w.StdDev()-StdDev(xs)) > 1e-12 {
		t.Errorf("Welford stddev = %v, want %v", w.StdDev(), StdDev(xs))
	}
	if w.N != uint64(len(xs)) {
		t.Errorf("N = %d, want %d", w.N, len(xs))
	}
}

func TestWelfordEdgeCases(t *testing.T) {
	var w Welford
	if w.Variance() != 0 || w.StdDev() != 0 {
		t.Error("empty accumulator should report zero variance")
	}
	w.Add(5)
	if w.Mean != 5 || w.Variance() != 0 {
		t.Errorf("singleton = mean %v var %v, want 5, 0", w.Mean, w.Variance())
	}
}

// TestSketchShardedMergeIsExact is the core sharding guarantee: a merge
// of per-shard sketches equals the single-shot sketch bit-for-bit, for
// any shard count, because the state is integer counts plus exact
// extremes.
func TestSketchShardedMergeIsExact(t *testing.T) {
	f := func(seed uint64, splitsRaw uint8) bool {
		r := xrand.New(seed)
		xs := sample(r, 100+r.Intn(300))
		splits := 1 + int(splitsRaw%9)

		whole := sketchOf(xs)
		merged := NewSketch(0, 100, 64)
		for i := 0; i < splits; i++ {
			part := NewSketch(0, 100, 64)
			for j := i; j < len(xs); j += splits {
				part.Add(xs[j])
			}
			merged.Merge(part)
		}
		return reflect.DeepEqual(whole, merged)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSketchMergeAssociativeAndCommutative(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		parts := make([]*Sketch, 3)
		for i := range parts {
			parts[i] = sketchOf(sample(r, 20+r.Intn(100)))
		}
		clone := func(s *Sketch) *Sketch {
			c := NewSketch(s.Lo, s.Hi, len(s.Counts))
			c.Merge(s)
			return c
		}
		ab := clone(parts[0])
		ab.Merge(parts[1])
		ab.Merge(parts[2]) // (a+b)+c
		bc := clone(parts[1])
		bc.Merge(parts[2])
		a := clone(parts[0])
		a.Merge(bc) // a+(b+c)
		ba := clone(parts[1])
		ba.Merge(parts[0]) // b+a
		abOnly := clone(parts[0])
		abOnly.Merge(parts[1]) // a+b
		return reflect.DeepEqual(ab, a) && reflect.DeepEqual(abOnly, ba)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestSketchQuantileTracksExactCDF bounds the sketch quantile between
// the exact empirical quantiles at neighboring ranks, padded by one bin
// width (the sketch's resolution limit).
func TestSketchQuantileTracksExactCDF(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		xs := make([]float64, 200)
		for i := range xs {
			xs[i] = r.Uniform(0, 100)
		}
		s := sketchOf(xs)
		exact := NewCDF(xs)
		binW := 100.0 / 64
		eps := 2.0 / float64(len(xs))
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1} {
			v := s.Quantile(q)
			lo := exact.Quantile(math.Max(0, q-eps)) - binW - 1e-9
			hi := exact.Quantile(math.Min(1, q+eps)) + binW + 1e-9
			if v < lo || v > hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestSketchMomentsTrackExact bounds the sketch's mean and stddev
// against exact sample moments by one bin width.
func TestSketchMomentsTrackExact(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		xs := make([]float64, 300)
		for i := range xs {
			xs[i] = r.Uniform(0, 100)
		}
		s := sketchOf(xs)
		binW := 100.0 / 64
		return math.Abs(s.Mean()-Mean(xs)) <= binW &&
			math.Abs(s.StdDev()-StdDev(xs)) <= binW
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
	var empty Sketch
	one := NewSketch(0, 1, 4)
	one.Add(0.5)
	if empty.StdDev() != 0 || one.StdDev() != 0 {
		t.Error("stddev of empty/singleton sketch should be 0")
	}
}

func TestSketchQuantileMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		s := sketchOf(sample(r, 150))
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.02 {
			v := s.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSketchExtremes(t *testing.T) {
	s := NewSketch(0, 10, 4)
	for _, x := range []float64{-3, 2, 5, 7, 42} {
		s.Add(x)
	}
	if s.Min() != -3 || s.Max() != 42 {
		t.Errorf("min/max = %v/%v, want -3/42", s.Min(), s.Max())
	}
	if s.Quantile(0) != -3 || s.Quantile(1) != 42 {
		t.Errorf("q0/q1 = %v/%v, want -3/42", s.Quantile(0), s.Quantile(1))
	}
	under, over := s.OutOfRange()
	if under != 1 || over != 1 {
		t.Errorf("out of range = %d/%d, want 1/1", under, over)
	}
	if s.N() != 5 {
		t.Errorf("N = %d, want 5", s.N())
	}
}

func TestSketchEdgeRounding(t *testing.T) {
	s := NewSketch(0, 1, 3)
	s.Add(math.Nextafter(1, 0)) // just below Hi must land in the last bin
	if s.Counts[2] != 1 {
		t.Errorf("edge sample not in last bin: %v", s.Counts)
	}
	if _, over := s.OutOfRange(); over != 0 {
		t.Error("edge sample miscounted as overflow")
	}
}

func TestSketchEmpty(t *testing.T) {
	s := NewSketch(0, 1, 8)
	if !math.IsNaN(s.Quantile(0.5)) || !math.IsNaN(s.Min()) || !math.IsNaN(s.Max()) {
		t.Error("empty sketch should report NaN quantiles and extremes")
	}
	if s.Mean() != 0 {
		t.Error("empty sketch mean should be 0")
	}
	if s.Points(5) != nil {
		t.Error("empty sketch should yield no CDF points")
	}
}

func TestSketchPointsMonotoneAndComplete(t *testing.T) {
	r := xrand.New(7)
	s := sketchOf(sample(r, 500))
	pts := s.Points(12)
	if len(pts) == 0 || len(pts) > 12 {
		t.Fatalf("got %d points, want 1..12", len(pts))
	}
	last := pts[len(pts)-1]
	if last.Y != 1 || last.X != s.Max() {
		t.Errorf("final point = %+v, want (%v, 1)", last, s.Max())
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X || pts[i].Y < pts[i-1].Y {
			t.Fatal("CDF points not monotone")
		}
	}
}

func TestSketchPointsSmallN(t *testing.T) {
	r := xrand.New(3)
	s := sketchOf(sample(r, 200))
	pts := s.Points(1)
	if len(pts) != 1 || pts[0].Y != 1 || pts[0].X != s.Max() {
		t.Errorf("Points(1) = %+v, want [(%v, 1)]", pts, s.Max())
	}
}

func TestSketchMergePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on incompatible sketch merge")
		}
	}()
	NewSketch(0, 10, 4).Merge(NewSketch(0, 10, 8))
}

func TestNewSketchPanicsOnBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for hi <= lo")
		}
	}()
	NewSketch(5, 5, 10)
}

func TestSketchTryMergeMismatch(t *testing.T) {
	cases := []struct {
		name string
		o    *Sketch
	}{
		{"bins", NewSketch(0, 10, 8)},
		{"hi", NewSketch(0, 20, 4)},
		{"lo", NewSketch(1, 10, 4)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSketch(0, 10, 4)
			s.Add(3)
			tc.o.Add(7)
			before := *s
			if err := s.TryMerge(tc.o); err == nil {
				t.Fatal("TryMerge accepted an incompatible sketch")
			}
			if !reflect.DeepEqual(before.Counts, s.Counts) || before.n != s.n {
				t.Error("failed TryMerge modified the receiver")
			}
		})
	}
}

func TestSketchTryMergeMatchesMerge(t *testing.T) {
	r := xrand.New(11)
	a, b := sketchOf(sample(r, 500)), sketchOf(sample(r, 300))
	viaMerge := sketchOf(nil)
	viaMerge.Merge(a)
	viaMerge.Merge(b)
	viaTry := sketchOf(nil)
	if err := viaTry.TryMerge(a); err != nil {
		t.Fatal(err)
	}
	if err := viaTry.TryMerge(b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(viaMerge, viaTry) {
		t.Error("TryMerge and Merge diverged on compatible sketches")
	}
}

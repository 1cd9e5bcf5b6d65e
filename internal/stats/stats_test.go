package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestMeanBasics(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v, want 0", got)
	}
	if got := Mean([]float64{2, 4, 6}); got != 4 {
		t.Errorf("Mean = %v, want 4", got)
	}
}

func TestStdDev(t *testing.T) {
	got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(got-2) > 1e-12 {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if StdDev([]float64{5}) != 0 {
		t.Error("StdDev of singleton should be 0")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Errorf("Min/Max = %v/%v, want -1/7", Min(xs), Max(xs))
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Error("empty Min/Max should be +Inf/-Inf")
	}
}

func TestCDFAt(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {10, 1},
	}
	for _, tc := range cases {
		if got := c.At(tc.x); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
}

func TestCDFQuantile(t *testing.T) {
	c := NewCDF([]float64{10, 20, 30, 40, 50})
	if got := c.Quantile(0); got != 10 {
		t.Errorf("Quantile(0) = %v, want 10", got)
	}
	if got := c.Quantile(1); got != 50 {
		t.Errorf("Quantile(1) = %v, want 50", got)
	}
	if got := c.Quantile(0.5); got != 30 {
		t.Errorf("median = %v, want 30", got)
	}
	if got := c.Quantile(0.25); got != 20 {
		t.Errorf("Quantile(0.25) = %v, want 20", got)
	}
}

func TestCDFEmptyQuantileIsNaN(t *testing.T) {
	c := NewCDF(nil)
	if !math.IsNaN(c.Quantile(0.5)) {
		t.Error("quantile of empty CDF should be NaN")
	}
	if c.At(3) != 0 {
		t.Error("At on empty CDF should be 0")
	}
}

func TestCDFAtIsMonotone(t *testing.T) {
	// Property: CDF is non-decreasing.
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		xs := make([]float64, 50)
		for i := range xs {
			xs[i] = r.Normal(0, 10)
		}
		c := NewCDF(xs)
		prev := -1.0
		for x := -30.0; x <= 30; x += 0.5 {
			v := c.At(x)
			if v < prev || v < 0 || v > 1 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCDFQuantileIsMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		xs := make([]float64, 40)
		for i := range xs {
			xs[i] = r.Float64() * 100
		}
		c := NewCDF(xs)
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := c.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCDFDoesNotAliasInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	c := NewCDF(xs)
	xs[0] = 999
	if c.Quantile(1) == 999 {
		t.Error("CDF aliased caller slice")
	}
}

func TestCDFPoints(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	pts := c.Points(5)
	if len(pts) != 5 {
		t.Fatalf("got %d points, want 5", len(pts))
	}
	last := pts[len(pts)-1]
	if last.X != 10 || last.Y != 1 {
		t.Errorf("final point = %+v, want (10, 1)", last)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X || pts[i].Y < pts[i-1].Y {
			t.Error("points not monotone")
		}
	}
}

package xrand

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("seeds 1 and 2 produced %d identical draws out of 100", same)
	}
}

func TestLabelStreamsIndependent(t *testing.T) {
	a := NewFromLabel(7, "mac/client0")
	b := NewFromLabel(7, "mac/client1")
	if a.Uint64() == b.Uint64() {
		t.Error("distinct labels produced identical first draws")
	}
	// Same label must reproduce the same stream.
	c := NewFromLabel(7, "mac/client0")
	d := NewFromLabel(7, "mac/client0")
	for i := 0; i < 100; i++ {
		if c.Uint64() != d.Uint64() {
			t.Fatalf("same-label streams diverged at draw %d", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(4)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("uniform mean = %v, want about 0.5", mean)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(5)
	counts := make([]int, 16)
	for i := 0; i < 160000; i++ {
		v := r.Intn(16)
		if v < 0 || v >= 16 {
			t.Fatalf("Intn(16) out of range: %d", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		if c < 8000 || c > 12000 {
			t.Errorf("bucket %d count %d far from uniform expectation 10000", i, c)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestExpMean(t *testing.T) {
	r := New(6)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Exp(3.5)
	}
	mean := sum / n
	if math.Abs(mean-3.5) > 0.05 {
		t.Errorf("exponential mean = %v, want about 3.5", mean)
	}
}

func TestExpNonNegative(t *testing.T) {
	r := New(60)
	for i := 0; i < 10000; i++ {
		if v := r.Exp(1); v < 0 {
			t.Fatalf("Exp produced negative value %v", v)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(7)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Normal(10, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("normal mean = %v, want about 10", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.05 {
		t.Errorf("normal stddev = %v, want about 2", math.Sqrt(variance))
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(10)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Errorf("Bool(0.3) hit fraction = %v", frac)
	}
}

func TestUniformWithinBounds(t *testing.T) {
	f := func(seed uint64) bool {
		r := New(seed)
		v := r.Uniform(-3, 9)
		return v >= -3 && v < 9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPoissonMoments(t *testing.T) {
	// Poisson mean and variance both equal lambda; check both regimes
	// (Knuth at small lambda, rounded normal above 30).
	for _, mean := range []float64{0.5, 4, 12, 80} {
		r := New(99)
		const n = 20000
		sum, sumSq := 0.0, 0.0
		for i := 0; i < n; i++ {
			k := float64(r.Poisson(mean))
			sum += k
			sumSq += k * k
		}
		m := sum / n
		v := sumSq/n - m*m
		if math.Abs(m-mean) > 0.05*mean+0.05 {
			t.Errorf("Poisson(%v) mean = %v", mean, m)
		}
		if math.Abs(v-mean) > 0.10*mean+0.1 {
			t.Errorf("Poisson(%v) variance = %v, want about %v", mean, v, mean)
		}
	}
}

func TestPoissonEdgeCases(t *testing.T) {
	r := New(1)
	if r.Poisson(0) != 0 || r.Poisson(-3) != 0 {
		t.Error("non-positive mean should yield 0")
	}
	for i := 0; i < 1000; i++ {
		if r.Poisson(50) < 0 {
			t.Fatal("negative Poisson draw")
		}
	}
	a, b := New(7), New(7)
	for i := 0; i < 100; i++ {
		if a.Poisson(12) != b.Poisson(12) {
			t.Fatal("identical seeds diverged")
		}
	}
}

// TestPoissonReturnsForAnyMean: a mean that is not a positive finite
// number draws 0, where a NaN mean used to spin forever in the
// product-of-uniforms loop, and a huge finite mean saturates at
// math.MaxInt rather than converting out of the int range. Each draw
// runs under a deadline, so a hang fails the test instead of stalling
// the run.
func TestPoissonReturnsForAnyMean(t *testing.T) {
	cases := []struct {
		mean float64
		want int
	}{
		{math.NaN(), 0},
		{math.Inf(1), 0},
		{math.Inf(-1), 0},
		{1e300, math.MaxInt},
		{math.MaxFloat64, math.MaxInt},
	}
	for _, tc := range cases {
		got := make(chan int, 1)
		go func() { got <- New(1).Poisson(tc.mean) }()
		select {
		case n := <-got:
			if n != tc.want {
				t.Errorf("Poisson(%v) = %d, want %d", tc.mean, n, tc.want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("Poisson(%v) did not return within 5 s", tc.mean)
		}
	}
}

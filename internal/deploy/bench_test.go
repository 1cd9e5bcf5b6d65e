package deploy

import (
	"fmt"
	"testing"
	"time"
)

// benchBinInputs returns a representative mid-evening bin of a Table 1
// home: moderate client load, neighbors on all three channels.
func benchBinInputs() (seed uint64, clientLoad float64, neighborLoad [3]float64, window time.Duration) {
	return 103*1_000_003 + 7, 0.35, [3]float64{0.25, 0.08, 0.4}, 10 * time.Millisecond
}

// BenchmarkSampleBin measures the pooled per-bin packet-level sample —
// the fleet hot path — reporting ns/bin and allocs/bin directly. The
// window sub-benchmarks bracket the fleet default (2 ms in the fleet
// benchmark config, 10 ms in the fleet CLI default). The idle ones run
// a bin with no neighbor load, so the router radio is alone on every
// channel, with and without the client feed on channel 1; the
// contenders=4 one runs full neighbor load, four contenders on every
// channel, the channel pass's worst case.
func BenchmarkSampleBin(b *testing.B) {
	seed, clientLoad, neighborLoad, _ := benchBinInputs()
	for _, window := range []time.Duration{2 * time.Millisecond, 10 * time.Millisecond} {
		b.Run(fmt.Sprintf("window=%v", window), func(b *testing.B) {
			benchSampleBin(b, seed, clientLoad, neighborLoad, window)
		})
	}
	b.Run("idle=router/window=10ms", func(b *testing.B) {
		benchSampleBin(b, seed, 0, [3]float64{}, 10*time.Millisecond)
	})
	b.Run("idle=router+client/window=10ms", func(b *testing.B) {
		benchSampleBin(b, seed, clientLoad, [3]float64{}, 10*time.Millisecond)
	})
	b.Run("contenders=4/window=10ms", func(b *testing.B) {
		benchSampleBin(b, seed, clientLoad, [3]float64{0.85, 0.85, 0.85}, 10*time.Millisecond)
	})
}

func benchSampleBin(b *testing.B, seed uint64, clientLoad float64, neighborLoad [3]float64, window time.Duration) {
	smp := NewSampler()
	smp.sampleBin(seed, clientLoad, neighborLoad, window) // warm pools
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		occ, _ := smp.sampleBin(seed+uint64(i%1440), clientLoad, neighborLoad, window)
		if occ[0] <= 0 {
			b.Fatal("no occupancy sampled")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/bin")
}

// BenchmarkRunBatchPooled measures a full pooled single-home run into
// a reused batch at the fleet's default per-bin window, including the
// sensor evaluation.
func BenchmarkRunBatchPooled(b *testing.B) {
	smp := NewSampler()
	opts := Options{BinWidth: time.Hour, Window: 10 * time.Millisecond, Hours: 24, SensorDistanceFt: 10}
	home := PaperHomes()[2]
	var batch BinBatch
	smp.RunBatch(home, opts, &batch, nil) // warm pools, the batch and the surface
	b.ReportAllocs()
	b.ResetTimer()
	bins := 0
	for i := 0; i < b.N; i++ {
		smp.RunBatch(home, opts, &batch, nil)
		bins += batch.Len()
	}
	b.StopTimer()
	if bins != b.N*24 {
		b.Fatalf("ran %d bins, want %d", bins, b.N*24)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(bins), "ns/bin")
}

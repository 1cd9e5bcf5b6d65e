package eventsim

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkKernelSteadyState measures the allocation-free schedule+fire
// cycle at the queue depths the simulators hold: 8–30 pending events in
// the deploy sampler and fleet (median 14), up to 81 in the paper
// experiments. Every fired event schedules its successor, and every
// tenth also cancels a pending event and schedules a replacement, so
// about 10% of scheduled events are cancelled rather than fired. Delays
// are uniform in 1–64 µs, so insertions land anywhere in the queue, not
// only at its near-term end. One op is one scheduled event.
func BenchmarkKernelSteadyState(b *testing.B) {
	for _, depth := range []int{8, 14, 30, 81} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			s := New()
			var rng uint64 = 1
			delay := func() time.Duration {
				rng = rng*6364136223846793005 + 1442695040888963407
				return time.Duration(1+rng>>58) * time.Microsecond
			}
			left, fired := 0, 0
			var last Handle
			var fire func(ctx any)
			fire = func(any) {
				fired++
				if left > 0 && fired%10 == 0 && last.At() != 0 && !last.Cancelled() {
					last.Cancel()
					last = s.AfterCtx(delay(), fire, nil)
					left--
				}
				if left > 0 {
					last = s.AfterCtx(delay(), fire, nil)
					left--
				}
			}
			run := func(n int) {
				s.Reset()
				left, fired = n, 0
				for j := 0; j < depth && left > 0; j++ {
					last = s.AfterCtx(delay(), fire, nil)
					left--
				}
				s.Run()
			}
			run(10 * depth) // grow the queue and free list
			b.ReportAllocs()
			b.ResetTimer()
			run(b.N)
		})
	}
}

//go:build unix

package trace

import "syscall"

// ProcessCPUSeconds returns the process's cumulative CPU time (user +
// system, all threads). Span CPU deltas therefore measure the whole
// process over the phase — the right denominator for judging how well
// a parallel phase kept the workers busy.
func ProcessCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	sec := func(tv syscall.Timeval) float64 {
		return float64(tv.Sec) + float64(tv.Usec)/1e6
	}
	return sec(ru.Utime) + sec(ru.Stime)
}

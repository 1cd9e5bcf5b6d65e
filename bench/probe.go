package main

import (
	"math"
	"time"
)

// refProbeS is hostProbe's result on a quiet 2-vCPU KVM guest of an
// Intel Xeon (Sapphire Rapids, 2.0 GHz). It only sets the scale of the
// reported times: on that host, when quiet, they read as plain seconds.
const refProbeS = 0.125

// hostProbe times a fixed integer and floating-point loop, ~0.13 s on
// the reference host, and returns its seconds. The parent runs it
// between child processes, when no repository code runs, so no change
// to the program can move it; only the host's speed does.
//
// The benchmark's host is a shared virtual machine whose neighbours
// slow it by 10–40% for minutes at a time, in CPU time as much as in
// wall time. The probe slows with it, so the end-to-end times are
// reported at the reference speed: each child's times are multiplied
// by refProbeS over the mean of the probes just before and just after
// it. The probe is one long run, not the best of several short ones:
// the neighbours' load comes in bursts, and a child meets their mean,
// which the fastest of several short runs understates.
func hostProbe() float64 {
	t0 := time.Now()
	probeSink += probeLoop(4_000_000)
	return time.Since(t0).Seconds()
}

// probeSink keeps the compiler from discarding the probe's work.
var probeSink float64

// probeLoop mixes an xorshift generator, a square root and an insertion
// sort of 32 keys, the size of one bin's timer set.
func probeLoop(n int) float64 {
	var keys [32]float64
	k := 0
	x, s := 1.0, uint64(1)
	for range n {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		x = x*1.0000001 + math.Sqrt(float64(s%1000))
		keys[k] = float64(s % 997)
		if k++; k == len(keys) {
			for i := 1; i < len(keys); i++ {
				for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
					keys[j], keys[j-1] = keys[j-1], keys[j]
				}
			}
			k = 0
		}
	}
	return x + keys[0]
}

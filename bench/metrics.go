package main

import (
	"math"
	"sort"
)

// metric is one reported number as BENCHMARK.json declares it: name,
// unit, which direction is better, and the regression bound — the
// share of the parent's median by which it may worsen. Per-layer
// metrics have no bound (0).
type metric struct {
	name        string
	unit        string
	lowerBetter bool
	bound       float64
}

// endToEnd are the untraced pass's metrics: what a user of
// Scenario.Run or powifi-fleet experiences, from process start to
// report written. The bounds sit above the noise measured on a shared
// 2-core virtual machine: ~1% run-to-run spread when the host is quiet,
// but its neighbours' load slows it by 10–40% for minutes at a time,
// CPU time as much as wall time, which the host-speed scaling (probe.go)
// removes only in part. Memory moves less: its spread over ten runs
// stayed within 6%.
// setup_s carries the widest bound so that work moved into set-up shows
// as a regression of its own.
var endToEnd = []metric{
	{name: "setup_s", unit: "s", lowerBetter: true, bound: 0.25},
	{name: "wall_s", unit: "s", lowerBetter: true, bound: 0.24},
	{name: "homes_per_s", unit: "homes/s", lowerBetter: false, bound: 0.24},
	{name: "cpu_s", unit: "s", lowerBetter: true, bound: 0.24},
	{name: "peak_rss_mb", unit: "MB", lowerBetter: true, bound: 0.2},
}

// perLayer are the traced pass's metrics, named after the package whose
// public functions the pass times. README.md maps each to the
// end-to-end metric and workload it should move.
var perLayer = []metric{
	{name: "surface.build_s.battery_free", unit: "s", lowerBetter: true},
	{name: "surface.build_s.battery_charging", unit: "s", lowerBetter: true},
	{name: "surface.build_cpu_s", unit: "s", lowerBetter: true},
	{name: "surface.grid_points", unit: "count", lowerBetter: true},
	{name: "eventsim.hold_ns_per_event", unit: "ns", lowerBetter: true},
	{name: "eventsim.events_per_bin", unit: "count", lowerBetter: true},
	{name: "deploy.bin_sim_us.p50", unit: "us", lowerBetter: true},
	{name: "deploy.bin_sim_us.p99", unit: "us", lowerBetter: true},
	{name: "deploy.ns_per_event", unit: "ns", lowerBetter: true},
	{name: "deploy.home_us.p50", unit: "us", lowerBetter: true},
	{name: "deploy.home_us.p90", unit: "us", lowerBetter: true},
	{name: "deploy.allocs_per_bin", unit: "count", lowerBetter: true},
	{name: "deploy.coarse.simulated_frac", unit: "ratio", lowerBetter: true},
	{name: "deploy.coarse.escalations_per_home", unit: "count", lowerBetter: true},
	{name: "deploy.coarse.proxy_us_per_home", unit: "us", lowerBetter: true},
	{name: "core.evaluate_ns_per_bin", unit: "ns", lowerBetter: true},
	{name: "core.surface_hit_ratio", unit: "ratio", lowerBetter: false},
	{name: "lifecycle.visit_us_per_home", unit: "us", lowerBetter: true},
	{name: "fleet.synth_us_per_home", unit: "us", lowerBetter: true},
	{name: "fleet.overhead_us_per_home", unit: "us", lowerBetter: true},
	{name: "fleet.reduce_ms", unit: "ms", lowerBetter: true},
	{name: "fleet.scaling_eff", unit: "ratio", lowerBetter: false},
	{name: "fleet.checkpoint_write_ms", unit: "ms", lowerBetter: true},
	{name: "fleet.checkpoint_bytes", unit: "bytes", lowerBetter: true},
	{name: "obs.overhead_frac", unit: "ratio", lowerBetter: true},
	{name: "obs.report_write_ms", unit: "ms", lowerBetter: true},
	{name: "bench.trace_overhead_frac", unit: "ratio", lowerBetter: true},
	{name: "bench.trace_coverage", unit: "ratio", lowerBetter: false},
}

// lookupMetric finds a declared metric by name.
func lookupMetric(name string) (metric, bool) {
	for _, set := range [][]metric{endToEnd, perLayer} {
		for _, m := range set {
			if m.name == name {
				return m, true
			}
		}
	}
	return metric{}, false
}

// sample is one measured metric value with the number of observations
// behind it.
type sample struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between the closest ranks; NaN for no samples. Report
// a percentile only when at least ten samples lie beyond it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (its default "exclusive"
// method), so a spread printed here matches the one an external check
// computes from the same values. It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	m := n + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(q2)
}

// sum adds xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

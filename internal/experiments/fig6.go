package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/monitor"
	"repro/internal/netstack"
	"repro/internal/phy"
	"repro/internal/router"
	"repro/internal/stats"
	"repro/internal/testbed"
	"repro/internal/traffic"
	"repro/internal/xrand"
)

// benchSchemes is the comparison set of §4.1.
var benchSchemes = []router.Scheme{router.Baseline, router.PoWiFi, router.NoQueue, router.BlindUDP}

// officeLoad is the background airtime fraction per channel on "a busy
// weekday in our organization".
const officeLoad = 0.35

// monitoredBench couples a bench with per-channel router-occupancy
// monitors (the Fig. 7 measurement).
type monitoredBench struct {
	*testbed.Bench
	Mons map[phy.Channel]*monitor.Monitor
}

func newMonitoredBench(cfg testbed.BenchConfig) *monitoredBench {
	b := testbed.NewBench(cfg)
	mons := make(map[phy.Channel]*monitor.Monitor, 3)
	for _, chNum := range phy.PoWiFiChannels {
		radio := b.Router.Radio(chNum)
		mons[chNum] = monitor.New(b.Channels[chNum], 500*time.Millisecond, radio.MAC.StationID())
	}
	return &monitoredBench{Bench: b, Mons: mons}
}

// occupancySummary captures the Fig. 7 statistics of one run.
type occupancySummary struct {
	PerChannel map[phy.Channel]*stats.CDF
	Cumulative *stats.CDF
	MeanCumPct float64
}

func (m *monitoredBench) summarize() occupancySummary {
	s := occupancySummary{PerChannel: make(map[phy.Channel]*stats.CDF, 3)}
	for chNum, mon := range m.Mons {
		s.PerChannel[chNum] = mon.OccupancyCDF()
	}
	cum := monitor.CumulativeBins(m.Mons[phy.Channel1], m.Mons[phy.Channel6], m.Mons[phy.Channel11])
	s.Cumulative = stats.NewCDF(cum)
	s.MeanCumPct = stats.Mean(cum)
	return s
}

// Fig6aResult is the UDP throughput comparison (Fig. 6a) plus the
// occupancy CDFs recorded during the PoWiFi runs (Fig. 7a).
type Fig6aResult struct {
	RatesMbps []float64
	// AchievedMbps[scheme][rate index].
	AchievedMbps map[router.Scheme][]float64
	PoWiFiOcc    occupancySummary
}

// RunFig6a sweeps iperf UDP target rates for each scheme.
func RunFig6a(rates []float64, perRun time.Duration, seed uint64) *Fig6aResult {
	res := &Fig6aResult{RatesMbps: rates, AchievedMbps: make(map[router.Scheme][]float64)}
	for _, scheme := range benchSchemes {
		for ri, rate := range rates {
			mb := newMonitoredBench(testbed.BenchConfig{
				Scheme: scheme, BackgroundLoad: officeLoad, Seed: seed + uint64(ri),
			})
			sink := &netstack.UDPSink{Sched: mb.Sched}
			src := &netstack.UDPSource{
				Sched: mb.Sched, Path: mb.DownlinkPath(), Sink: sink,
				PayloadBytes: 1500, RateMbps: rate,
			}
			mb.Start()
			src.Start()
			mb.Sched.RunUntil(perRun)
			res.AchievedMbps[scheme] = append(res.AchievedMbps[scheme],
				sink.ThroughputMbps(0, perRun))
			if scheme == router.PoWiFi && ri == len(rates)-1 {
				res.PoWiFiOcc = mb.summarize()
			}
		}
	}
	return res
}

// WriteTable prints the Fig. 6a table.
func (r *Fig6aResult) WriteTable(w io.Writer) {
	fmt.Fprint(w, "udp_rate_mbps")
	for _, s := range benchSchemes {
		fmt.Fprintf(w, "  %9s", s)
	}
	fmt.Fprintln(w)
	for ri, rate := range r.RatesMbps {
		fmt.Fprintf(w, "%13.0f", rate)
		for _, s := range benchSchemes {
			fmt.Fprintf(w, "  %9.1f", r.AchievedMbps[s][ri])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "PoWiFi mean cumulative occupancy: %.1f%% (paper: 97.6%%)\n", r.PoWiFiOcc.MeanCumPct)
}

// Fig6bResult is the TCP throughput CDF comparison (Fig. 6b) plus the
// PoWiFi occupancy summary (Fig. 7b).
type Fig6bResult struct {
	// Samples holds 500 ms-interval throughput samples per scheme.
	Samples map[router.Scheme][]float64
	// CDFs are built over those samples.
	CDFs      map[router.Scheme]*stats.CDF
	PoWiFiOcc occupancySummary
}

// RunFig6b measures interval TCP throughput across runs for each scheme.
func RunFig6b(runs int, perRun time.Duration, seed uint64) *Fig6bResult {
	res := &Fig6bResult{
		Samples: make(map[router.Scheme][]float64),
		CDFs:    make(map[router.Scheme]*stats.CDF),
	}
	const interval = 500 * time.Millisecond
	for _, scheme := range benchSchemes {
		for run := 0; run < runs; run++ {
			mb := newMonitoredBench(testbed.BenchConfig{
				Scheme: scheme, BackgroundLoad: officeLoad, Seed: seed + uint64(run)*17,
			})
			snd := &netstack.TCPSender{Sched: mb.Sched}
			rcv := &netstack.TCPReceiver{Sched: mb.Sched}
			netstack.Connect(snd, rcv, mb.DownlinkPath(), mb.UplinkPath())
			// Sample acked bytes every 500 ms, like iperf's interval report.
			lastBytes := 0
			var cancel func()
			cancel = mb.Sched.Ticker(interval, func() {
				delta := snd.AckedBytes() - lastBytes
				lastBytes = snd.AckedBytes()
				res.Samples[scheme] = append(res.Samples[scheme],
					float64(delta)*8/interval.Seconds()/1e6)
			})
			mb.Start()
			snd.Start()
			mb.Sched.RunUntil(perRun)
			cancel()
			if scheme == router.PoWiFi && run == runs-1 {
				res.PoWiFiOcc = mb.summarize()
			}
		}
	}
	for _, scheme := range benchSchemes {
		res.CDFs[scheme] = stats.NewCDF(res.Samples[scheme])
	}
	return res
}

// WriteTable prints quantiles of each scheme's throughput CDF.
func (r *Fig6bResult) WriteTable(w io.Writer) {
	fmt.Fprintln(w, "scheme      p10    p50    p90  (Mbps, 500 ms intervals)")
	for _, s := range benchSchemes {
		c := r.CDFs[s]
		fmt.Fprintf(w, "%-9s %5.1f  %5.1f  %5.1f\n", s,
			c.Quantile(0.1), c.Quantile(0.5), c.Quantile(0.9))
	}
	fmt.Fprintf(w, "PoWiFi mean cumulative occupancy: %.1f%% (paper: 100.9%%)\n", r.PoWiFiOcc.MeanCumPct)
}

// Fig6cResult is the page-load-time comparison (Fig. 6c) plus the PoWiFi
// occupancy summary (Fig. 7c).
type Fig6cResult struct {
	Sites []string
	// MeanPLT[scheme][site index] in seconds.
	MeanPLT   map[router.Scheme][]float64
	PoWiFiOcc occupancySummary
}

// RunFig6c loads each site loadsPerSite times under each scheme.
func RunFig6c(loadsPerSite int, seed uint64) *Fig6cResult {
	sites := traffic.TopSites()
	res := &Fig6cResult{MeanPLT: make(map[router.Scheme][]float64)}
	for _, s := range sites {
		res.Sites = append(res.Sites, s.Name)
	}
	const timeout = 90 * time.Second
	for _, scheme := range benchSchemes {
		for si, site := range sites {
			total := 0.0
			for load := 0; load < loadsPerSite; load++ {
				mb := newMonitoredBench(testbed.BenchConfig{
					Scheme: scheme, BackgroundLoad: officeLoad,
					Seed: seed + uint64(si)*101 + uint64(load)*7,
				})
				var plt time.Duration
				loader := traffic.NewPageLoader(mb.Sched, site,
					mb.DownlinkPath(), mb.UplinkPath(),
					xrand.NewFromLabel(seed, site.Name))
				done := false
				loader.OnComplete = func(d time.Duration) {
					plt = d
					done = true
					mb.Sched.Stop()
				}
				mb.Start()
				loader.Start()
				mb.Sched.RunUntil(timeout)
				if !done {
					plt = timeout
				}
				total += plt.Seconds()
				if scheme == router.PoWiFi && si == 0 && load == 0 {
					res.PoWiFiOcc = mb.summarize()
				}
			}
			res.MeanPLT[scheme] = append(res.MeanPLT[scheme], total/float64(loadsPerSite))
		}
	}
	return res
}

// MeanDelayVsBaseline returns the scheme's PLT penalty over Baseline
// averaged across sites, in seconds (the paper reports 101 ms for PoWiFi
// and 294 ms for NoQueue).
func (r *Fig6cResult) MeanDelayVsBaseline(s router.Scheme) float64 {
	base := r.MeanPLT[router.Baseline]
	other := r.MeanPLT[s]
	if len(base) == 0 || len(base) != len(other) {
		return 0
	}
	sum := 0.0
	for i := range base {
		sum += other[i] - base[i]
	}
	return sum / float64(len(base))
}

// WriteTable prints the per-site PLT table.
func (r *Fig6cResult) WriteTable(w io.Writer) {
	fmt.Fprint(w, "site            ")
	for _, s := range benchSchemes {
		fmt.Fprintf(w, "  %9s", s)
	}
	fmt.Fprintln(w, "  (seconds)")
	for si, site := range r.Sites {
		fmt.Fprintf(w, "%-16s", site)
		for _, s := range benchSchemes {
			fmt.Fprintf(w, "  %9.2f", r.MeanPLT[s][si])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "mean delay vs baseline: PoWiFi %+.0f ms (paper +101), NoQueue %+.0f ms (paper +294)\n",
		r.MeanDelayVsBaseline(router.PoWiFi)*1000, r.MeanDelayVsBaseline(router.NoQueue)*1000)
}

// writeOccupancy prints a Fig. 7-style occupancy summary.
func writeOccupancy(w io.Writer, label string, s occupancySummary) {
	fmt.Fprintf(w, "%s:\n", label)
	for _, chNum := range phy.PoWiFiChannels {
		c := s.PerChannel[chNum]
		if c == nil || c.N() == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-5s p10=%5.1f%% p50=%5.1f%% p90=%5.1f%%\n",
			chNum, c.Quantile(0.1), c.Quantile(0.5), c.Quantile(0.9))
	}
	if s.Cumulative != nil && s.Cumulative.N() > 0 {
		fmt.Fprintf(w, "  cumulative mean=%.1f%% p50=%.1f%%\n",
			s.MeanCumPct, s.Cumulative.Quantile(0.5))
	}
}

func init() {
	register("fig6a", "effect on UDP throughput (4 schemes)", "Effect on UDP traffic",
		func(cfg Config) Table {
			rates := []float64{1, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50}
			per := 3 * time.Second
			if cfg.Quick {
				rates = []float64{5, 15, 30, 50}
				per = 1500 * time.Millisecond
			}
			return RunFig6a(rates, per, 11)
		})
	register("fig6b", "effect on TCP throughput (4 schemes)", "Effect on TCP traffic",
		func(cfg Config) Table {
			runs, per := 10, 4*time.Second
			if cfg.Quick {
				runs, per = 3, 2*time.Second
			}
			return RunFig6b(runs, per, 13)
		})
	register("fig6c", "effect on page load time of top-10 US sites", "Effect on page load time",
		func(cfg Config) Table {
			loads := 5
			if cfg.Quick {
				loads = 1
			}
			return RunFig6c(loads, 17)
		})
	register("fig7", "channel occupancy CDFs during the UDP/TCP/PLT runs", "PoWiFi channel occupancies",
		func(cfg Config) Table {
			per := 4 * time.Second
			if cfg.Quick {
				per = 2 * time.Second
			}
			return RunFig7Occupancies(per, 11)
		})
}

// workload kinds for the Fig. 7 occupancy measurement.
const (
	workloadUDP = iota
	workloadTCP
	workloadPLT
)

// Fig7Result groups the occupancy summaries of the three workload types.
type Fig7Result struct {
	UDP, TCP, PLT occupancySummary
}

// WriteTable prints the three summaries against the paper's means.
func (r *Fig7Result) WriteTable(w io.Writer) {
	writeOccupancy(w, "UDP experiments (paper cumulative mean 97.6%)", r.UDP)
	writeOccupancy(w, "TCP experiments (paper cumulative mean 100.9%)", r.TCP)
	writeOccupancy(w, "PLT experiments (paper cumulative mean 87.6%)", r.PLT)
}

// RunFig7Occupancies measures PoWiFi channel occupancy under the UDP, TCP
// and PLT workloads (Fig. 7a-c).
func RunFig7Occupancies(perRun time.Duration, seed uint64) *Fig7Result {
	return &Fig7Result{
		UDP: runPoWiFiOccupancy(perRun, seed, workloadUDP),
		TCP: runPoWiFiOccupancy(perRun, seed+2, workloadTCP),
		PLT: runPoWiFiOccupancy(perRun, seed+4, workloadPLT),
	}
}

// runPoWiFiOccupancy runs a PoWiFi bench under one client workload and
// returns the occupancy summary (the Fig. 7 measurement without the
// scheme-comparison overhead of the Fig. 6 runners).
func runPoWiFiOccupancy(perRun time.Duration, seed uint64, workload int) occupancySummary {
	mb := newMonitoredBench(testbed.BenchConfig{
		Scheme: router.PoWiFi, BackgroundLoad: officeLoad, Seed: seed,
	})
	switch workload {
	case workloadUDP:
		sink := &netstack.UDPSink{Sched: mb.Sched}
		src := &netstack.UDPSource{
			Sched: mb.Sched, Path: mb.DownlinkPath(), Sink: sink,
			PayloadBytes: 1500, RateMbps: 20,
		}
		src.Start()
	case workloadTCP:
		snd := &netstack.TCPSender{Sched: mb.Sched}
		rcv := &netstack.TCPReceiver{Sched: mb.Sched}
		netstack.Connect(snd, rcv, mb.DownlinkPath(), mb.UplinkPath())
		snd.Start()
	case workloadPLT:
		site := traffic.TopSites()[0]
		loader := traffic.NewPageLoader(mb.Sched, site,
			mb.DownlinkPath(), mb.UplinkPath(), xrand.NewFromLabel(seed, "plt"))
		loader.Start()
	}
	mb.Start()
	mb.Sched.RunUntil(perRun)
	return mb.summarize()
}

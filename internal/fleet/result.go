package fleet

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"repro/internal/deploy"
	"repro/internal/lifecycle"
	"repro/internal/phy"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Sketch resolutions. Per-home occupancy means and pooled per-bin
// occupancies live on a percentage scale (cumulative across three
// channels can reach 300%); harvested power across realistic sensor
// placements spans 0 to a few hundred microwatts; sensor update
// latencies of a responsive bin sit well under two minutes.
const (
	occHiPct    = 300
	occBins     = 1200
	chHiPct     = 100
	chBins      = 1000
	harvestHiUW = 500
	harvestBins = 2000
	latencyHiS  = 120
	latencyBins = 2400
	cdfCurvePts = 24
)

// homeStats is the summary a worker emits per home: the scalar means,
// plus the home's per-bin fold inputs as plain columns. These flow
// through the reorder buffer and are folded into the fleet aggregates
// in home-index order by Result.addHome — the per-bin sketch adds and
// lifecycle ledger bins included — so the reducing goroutine owns
// every aggregate and a checkpoint of the committed home prefix is a
// complete snapshot of the run's state.
type homeStats struct {
	idx   int
	home  Home
	means deploy.HomeMeans
	// Per-bin columns (one backing array, sliced three ways): cumulative
	// occupancy %, banked harvest µW, and sensor rate Hz per bin.
	binCum, binUW, binRate []float64
	// life carries the home's device-lifecycle scalars and per-bin
	// ledger observations when the population enables the engine
	// (hasLife); the classic aggregates above are produced either way.
	hasLife bool
	life    lifeHomeStats
	// fail marks a home whose attempts were exhausted: it rides the
	// reorder buffer like a success (so the failure surfaces at a
	// deterministic, workers-invariant point of the reduce order) but
	// the reducer routes it to the failure policy instead of addHome.
	fail *HomeError
	// tr is the home's flight recorder when the run traces; it rides
	// the reorder buffer so trace commits happen in home-index order.
	tr *trace.HomeTrace
}

// Result holds the fleet-level aggregates of one run.
type Result struct {
	// Config echoes the resolved configuration (including the worker
	// count actually used; excluded from serialized output so worker
	// count cannot leak into result comparisons).
	Config Config

	// Per-home population aggregates, reduced in home-index order.
	CumOcc      *stats.Sketch    // per-home mean cumulative occupancy, %
	ChOcc       [3]*stats.Sketch // per-home mean occupancy per PoWiFi channel, %
	HomeHarvest *stats.Sketch    // per-home mean harvested power, µW
	OccW        stats.Welford    // exact moments over per-home mean occupancy
	HarvestW    stats.Welford    // exact moments over per-home mean harvest (µW)
	RateW       stats.Welford    // exact moments over per-home mean sensor rate

	// Pooled per-bin aggregates.
	BinOcc     *stats.Sketch // per-bin cumulative occupancy, %
	Harvest    *stats.Sketch // per-bin harvested power, µW
	Latency    *stats.Sketch // per-bin sensor update latency, s (responsive bins)
	SilentBins uint64        // bins where the sensor could not boot
	TotalBins  uint64

	// Arch holds the per-archetype lifecycle aggregates, nil unless the
	// population carries a device mix.
	Arch *[lifecycle.NumKinds]*archResult

	// Failure and degradation state. Errors lists the quarantined homes
	// in home-index order (empty unless a Skip policy saw failures);
	// those homes contribute to no aggregate above. Partial marks a run
	// that stopped on a degradation budget: the aggregates then
	// describe exactly the committed prefix [0, CommittedHomes), minus
	// quarantined homes, and PartialReason says which budget tripped
	// (PartialDeadline or PartialFailureBudget). All four fields are
	// workers-invariant.
	Errors         []HomeError
	Partial        bool
	PartialReason  string
	CommittedHomes int
}

func newResult(cfg Config) *Result {
	r := &Result{
		Config:      cfg,
		CumOcc:      stats.NewSketch(0, occHiPct, occBins),
		HomeHarvest: stats.NewSketch(0, harvestHiUW, harvestBins),
		BinOcc:      stats.NewSketch(0, occHiPct, occBins),
		Harvest:     stats.NewSketch(0, harvestHiUW, harvestBins),
		Latency:     stats.NewSketch(0, latencyHiS, latencyBins),
	}
	for i := range r.ChOcc {
		r.ChOcc[i] = stats.NewSketch(0, chHiPct, chBins)
	}
	if cfg.Population.Lifecycle() {
		r.Arch = new([lifecycle.NumKinds]*archResult)
		horizonS := cfg.Hours * 3600
		for i := range r.Arch {
			r.Arch[i] = newArchResult(horizonS)
		}
	}
	return r
}

// addHome folds one home into the aggregates: the per-bin columns into
// the pooled sketches, the scalar summary into the population
// distributions, and the lifecycle slice into its archetype. Callers
// must invoke it in home-index order for bit-for-bit reproducibility
// of the Welford moments; it is the single commit point, so a run's
// reducer state after k calls depends only on homes [0, k).
func (r *Result) addHome(hs homeStats) {
	for i := range hs.binCum {
		r.TotalBins++
		r.BinOcc.Add(hs.binCum[i])
		r.Harvest.Add(hs.binUW[i])
		if rate := hs.binRate[i]; rate > 0 {
			r.Latency.Add(1 / rate)
		} else {
			r.SilentBins++
		}
	}
	r.CumOcc.Add(hs.means.CumulativePct)
	for i := range r.ChOcc {
		r.ChOcc[i].Add(hs.means.ChannelPct[i])
	}
	r.HomeHarvest.Add(hs.means.BankedHarvestUW)
	r.OccW.Add(hs.means.CumulativePct)
	r.HarvestW.Add(hs.means.BankedHarvestUW)
	r.RateW.Add(hs.means.SensorRate)
	if hs.hasLife && r.Arch != nil {
		r.Arch[hs.life.kind].addHome(hs.life.kind, hs.life)
	}
}

// SilentFraction returns the fraction of logged bins in which the
// battery-free sensor could not operate.
func (r *Result) SilentFraction() float64 {
	if r.TotalBins == 0 {
		return 0
	}
	return float64(r.SilentBins) / float64(r.TotalBins)
}

// DistSummary is the serialized summary of one distribution. Underflow
// and Overflow count samples outside the sketch's bin range: when
// Overflow is a large share of N the upper percentiles saturate at Max
// and the reader must widen the sketch bounds rather than trust them.
type DistSummary struct {
	N         uint64  `json:"n"`
	Mean      float64 `json:"mean"`
	StdDev    float64 `json:"stddev"`
	Min       float64 `json:"min"`
	Max       float64 `json:"max"`
	P50       float64 `json:"p50"`
	P95       float64 `json:"p95"`
	P99       float64 `json:"p99"`
	Underflow uint64  `json:"underflow"`
	Overflow  uint64  `json:"overflow"`
}

// isChargerName reports whether a serialized archetype name is a pure
// battery charger (used to print "charged 0/N" rather than omitting
// the line when no home's battery filled within the horizon).
func isChargerName(name string) bool {
	k, err := lifecycle.ParseKind(name)
	return err == nil && k.Charger()
}

// distFromSketch summarizes a pooled sketch; mean and stddev come from
// the sketch itself (bin-midpoint approximation, deterministic).
func distFromSketch(s *stats.Sketch) DistSummary {
	if s.N() == 0 {
		return DistSummary{}
	}
	under, over := s.OutOfRange()
	return DistSummary{
		N:         s.N(),
		Mean:      s.Mean(),
		StdDev:    s.StdDev(),
		Min:       s.Min(),
		Max:       s.Max(),
		P50:       s.Quantile(0.50),
		P95:       s.Quantile(0.95),
		P99:       s.Quantile(0.99),
		Underflow: under,
		Overflow:  over,
	}
}

// distFromSketchWelford summarizes a per-home sketch, with exact
// Welford moments replacing the sketch approximations.
func distFromSketchWelford(s *stats.Sketch, w stats.Welford) DistSummary {
	d := distFromSketch(s)
	d.Mean = w.Mean
	d.StdDev = w.StdDev()
	return d
}

// Summary is the serializable fleet report: the generalization of the
// paper's Fig. 14-16 from six homes to a population. It deliberately
// omits the worker count — two runs of the same seed must serialize
// identically at any parallelism.
type Summary struct {
	Homes     int     `json:"homes"`
	Seed      uint64  `json:"seed"`
	Hours     float64 `json:"hours"`
	BinWidthS float64 `json:"bin_width_s"`
	WindowS   float64 `json:"window_s"`
	// Population echoes the resolved household distributions: two runs
	// are comparable only if this block matches too.
	Population Population `json:"population"`

	TotalBins      uint64  `json:"total_bins"`
	SilentBins     uint64  `json:"silent_bins"`
	SilentFraction float64 `json:"silent_fraction"`

	// HomeOccupancyPct distributes per-home mean cumulative occupancy
	// (the paper reports 78-127% across its six homes).
	HomeOccupancyPct    DistSummary            `json:"home_occupancy_pct"`
	ChannelOccupancyPct map[string]DistSummary `json:"channel_occupancy_pct"`
	// HomeHarvestUW distributes per-home mean harvested power.
	HomeHarvestUW DistSummary `json:"home_harvest_uw"`
	// BinOccupancyPct pools every logging bin across the fleet.
	BinOccupancyPct DistSummary `json:"bin_occupancy_pct"`
	// BinHarvestUW pools per-bin harvested power across the fleet.
	BinHarvestUW DistSummary `json:"bin_harvest_uw"`
	// UpdateLatencyS pools per-bin sensor update latency (1/rate) over
	// responsive bins; silent bins are reported via SilentFraction.
	UpdateLatencyS DistSummary `json:"update_latency_s"`
	// MeanUpdateRateHz is the fleet mean of per-home mean sensor rates.
	MeanUpdateRateHz float64 `json:"mean_update_rate_hz"`

	// CDF curves for plotting the population figures. The prefixes name
	// the sample population: HomeOccupancyCDF distributes per-home
	// means (pairs with HomeOccupancyPct), while the harvest and
	// latency curves pool every logging bin across the fleet (pair with
	// BinHarvestUW / UpdateLatencyS, not the per-home summaries).
	HomeOccupancyCDF []stats.Point `json:"home_occupancy_cdf"`
	BinHarvestCDF    []stats.Point `json:"bin_harvest_cdf"`
	BinLatencyCDF    []stats.Point `json:"bin_latency_cdf"`

	// Lifecycle holds the device-lifecycle engine's per-archetype
	// report; nil unless the population carries a device mix.
	Lifecycle *LifecycleSummary `json:"lifecycle,omitempty"`

	// Failure and degradation report. All fields are omitted on a clean
	// run, so a fault-free report serializes byte-identically to builds
	// that predate them. Errors lists quarantined homes in home-index
	// order; Partial marks a degradation-budget stop whose aggregates
	// cover exactly homes [0, CommittedHomes).
	Partial        bool        `json:"partial,omitempty"`
	PartialReason  string      `json:"partial_reason,omitempty"`
	CommittedHomes int         `json:"committed_homes,omitempty"`
	FailedHomes    int         `json:"failed_homes,omitempty"`
	Errors         []HomeError `json:"errors,omitempty"`
}

// Summarize derives the serializable report from the aggregates.
func (r *Result) Summarize() Summary {
	s := Summary{
		Homes:               r.Config.Homes,
		Seed:                r.Config.Seed,
		Hours:               r.Config.Hours,
		BinWidthS:           r.Config.BinWidth.Seconds(),
		WindowS:             r.Config.Window.Seconds(),
		Population:          r.Config.Population,
		TotalBins:           r.TotalBins,
		SilentBins:          r.SilentBins,
		SilentFraction:      r.SilentFraction(),
		HomeOccupancyPct:    distFromSketchWelford(r.CumOcc, r.OccW),
		ChannelOccupancyPct: map[string]DistSummary{},
		HomeHarvestUW:       distFromSketchWelford(r.HomeHarvest, r.HarvestW),
		BinOccupancyPct:     distFromSketch(r.BinOcc),
		BinHarvestUW:        distFromSketch(r.Harvest),
		UpdateLatencyS:      distFromSketch(r.Latency),
		MeanUpdateRateHz:    r.RateW.Mean,
		HomeOccupancyCDF:    r.CumOcc.Points(cdfCurvePts),
		BinHarvestCDF:       r.Harvest.Points(cdfCurvePts),
		BinLatencyCDF:       r.Latency.Points(cdfCurvePts),
	}
	for i, chNum := range phy.PoWiFiChannels {
		s.ChannelOccupancyPct[chNum.String()] = distFromSketch(r.ChOcc[i])
	}
	s.Partial = r.Partial
	s.PartialReason = r.PartialReason
	if r.Partial {
		s.CommittedHomes = r.CommittedHomes
	}
	s.FailedHomes = len(r.Errors)
	s.Errors = r.Errors
	if r.Arch != nil {
		ls := &LifecycleSummary{Devices: r.Config.Population.Devices}
		for _, k := range lifecycle.Kinds() {
			if ar := r.Arch[k]; ar.Homes > 0 {
				ls.Archetypes = append(ls.Archetypes, summarizeArch(k, ar))
			}
		}
		s.Lifecycle = ls
	}
	return s
}

// WriteJSON writes the summary as indented JSON.
func (r *Result) WriteJSON(w io.Writer) error { return r.Summarize().WriteJSON(w) }

// WriteCSV writes the summary as metric rows plus CDF curve rows.
func (r *Result) WriteCSV(w io.Writer) error { return r.Summarize().WriteCSV(w) }

// WriteText writes a human-readable summary.
func (r *Result) WriteText(w io.Writer) error { return r.Summarize().WriteText(w) }

// WriteJSON writes the summary as indented JSON. The writers live on
// Summary (not only Result) so the facade's unified Report — which
// carries the serialized Summary, never the live aggregates — renders
// through the exact same code path as the internal tools.
func (s Summary) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteCSV writes the summary as metric rows plus CDF curve rows.
func (s Summary) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	row := func(fields ...string) { cw.Write(fields) }
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }

	row("section", "name", "n", "mean", "stddev", "min", "max", "p50", "p95", "p99", "underflow", "overflow")
	dist := func(name string, d DistSummary) {
		row("dist", name, u(d.N), f(d.Mean), f(d.StdDev), f(d.Min), f(d.Max), f(d.P50), f(d.P95), f(d.P99),
			u(d.Underflow), u(d.Overflow))
	}
	dist("home_occupancy_pct", s.HomeOccupancyPct)
	for _, chNum := range phy.PoWiFiChannels {
		dist("channel_occupancy_pct/"+chNum.String(), s.ChannelOccupancyPct[chNum.String()])
	}
	dist("home_harvest_uw", s.HomeHarvestUW)
	dist("bin_occupancy_pct", s.BinOccupancyPct)
	dist("bin_harvest_uw", s.BinHarvestUW)
	dist("update_latency_s", s.UpdateLatencyS)
	pop := s.Population
	popRow := func(name string, v float64) { row("population", name, "", f(v), "", "", "", "", "", "", "", "") }
	popRow("min_users", float64(pop.MinUsers))
	popRow("max_users", float64(pop.MaxUsers))
	popRow("max_devices_per_user", float64(pop.MaxDevicesPerUser))
	popRow("mean_neighbor_aps", pop.MeanNeighborAPs)
	popRow("max_neighbor_aps", float64(pop.MaxNeighborAPs))
	popRow("weekend_fraction", pop.WeekendFraction)
	popRow("min_sensor_ft", pop.MinSensorFt)
	popRow("max_sensor_ft", pop.MaxSensorFt)
	row("scalar", "homes", u(uint64(s.Homes)), "", "", "", "", "", "", "", "", "")
	row("scalar", "total_bins", u(s.TotalBins), "", "", "", "", "", "", "", "", "")
	row("scalar", "silent_fraction", "", f(s.SilentFraction), "", "", "", "", "", "", "", "")
	row("scalar", "mean_update_rate_hz", "", f(s.MeanUpdateRateHz), "", "", "", "", "", "", "", "")
	// Failure/degradation rows appear only when present, so fault-free
	// CSV output stays byte-identical.
	if s.Partial {
		row("scalar", "partial/"+s.PartialReason, u(uint64(s.CommittedHomes)), "", "", "", "", "", "", "", "", "")
	}
	if s.FailedHomes > 0 {
		row("scalar", "failed_homes", u(uint64(s.FailedHomes)), "", "", "", "", "", "", "", "", "")
	}
	for _, e := range s.Errors {
		row("error", e.Label, u(uint64(e.Index)), "", "", "", "", "", "", "", "", e.Msg)
	}
	curve := func(name string, pts []stats.Point) {
		for _, p := range pts {
			row("cdf", name, "", f(p.X), f(p.Y), "", "", "", "", "", "", "")
		}
	}
	curve("home_occupancy_pct", s.HomeOccupancyCDF)
	curve("bin_harvest_uw", s.BinHarvestCDF)
	curve("bin_latency_s", s.BinLatencyCDF)
	if s.Lifecycle != nil {
		for _, a := range s.Lifecycle.Archetypes {
			pre := "lifecycle/" + a.Kind + "/"
			dist(pre+"time_to_first_update_s", a.TimeToFirstUpdateS)
			dist(pre+"home_outage_pct", a.HomeOutagePct)
			dist(pre+"update_interval_s", a.UpdateIntervalS)
			dist(pre+"soc_pct", a.SoCPct)
			dist(pre+"charge_time_s", a.ChargeTimeS)
			scalar := func(name string, v float64) { row("lifecycle", pre+name, "", f(v), "", "", "", "", "", "", "", "") }
			row("lifecycle", pre+"homes", u(a.Homes), "", "", "", "", "", "", "", "", "")
			row("lifecycle", pre+"total_bins", u(a.TotalBins), "", "", "", "", "", "", "", "", "")
			row("lifecycle", pre+"outage_bins", u(a.OutageBins), "", "", "", "", "", "", "", "", "")
			row("lifecycle", pre+"homes_never_active", u(a.HomesNeverActive), "", "", "", "", "", "", "", "", "")
			row("lifecycle", pre+"homes_charged", u(a.HomesCharged), "", "", "", "", "", "", "", "", "")
			scalar("updates_per_home_mean", a.UpdatesPerHomeMean)
			scalar("frames_per_home_mean", a.FramesPerHomeMean)
			scalar("final_soc_pct_mean", a.FinalSoCPctMean)
			scalar("min_soc_pct_mean", a.MinSoCPctMean)
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteText writes a human-readable summary.
func (s Summary) WriteText(w io.Writer) error {
	var werr error
	p := func(format string, args ...any) {
		if werr == nil {
			_, werr = fmt.Fprintf(w, format+"\n", args...)
		}
	}
	p("fleet: %d homes x %.0f h (seed %d, bin %.0f s, window %.0f ms)",
		s.Homes, s.Hours, s.Seed, s.BinWidthS, s.WindowS*1000)
	if s.Partial {
		p("PARTIAL RESULT (%s): aggregates cover the committed prefix of %d/%d homes",
			s.PartialReason, s.CommittedHomes, s.Homes)
	}
	if s.FailedHomes > 0 {
		p("failed homes: %d quarantined (contribute to no aggregate)", s.FailedHomes)
		for _, e := range s.Errors {
			p("  home %d (%s): %d attempt(s): %s", e.Index, e.Label, e.Attempts, e.Msg)
		}
	}
	p("population: %d-%d users, <=%d devices/user, ~%.0f neighbor APs (cap %d), weekend %.2f, sensor %.0f-%.0f ft",
		s.Population.MinUsers, s.Population.MaxUsers, s.Population.MaxDevicesPerUser,
		s.Population.MeanNeighborAPs, s.Population.MaxNeighborAPs,
		s.Population.WeekendFraction, s.Population.MinSensorFt, s.Population.MaxSensorFt)
	p("")
	p("cumulative occupancy per home: mean %.1f%% ± %.1f  p50 %.1f%%  p95 %.1f%%  p99 %.1f%%  [%.1f, %.1f]",
		s.HomeOccupancyPct.Mean, s.HomeOccupancyPct.StdDev,
		s.HomeOccupancyPct.P50, s.HomeOccupancyPct.P95, s.HomeOccupancyPct.P99,
		s.HomeOccupancyPct.Min, s.HomeOccupancyPct.Max)
	for _, chNum := range phy.PoWiFiChannels {
		d := s.ChannelOccupancyPct[chNum.String()]
		p("  %-5s mean %.1f%%  p50 %.1f%%  p95 %.1f%%", chNum, d.Mean, d.P50, d.P95)
	}
	p("")
	p("harvested power per home:      mean %.2f µW ± %.2f  p50 %.2f  p95 %.2f  p99 %.2f",
		s.HomeHarvestUW.Mean, s.HomeHarvestUW.StdDev,
		s.HomeHarvestUW.P50, s.HomeHarvestUW.P95, s.HomeHarvestUW.P99)
	p("sensor update latency (bins):  p50 %.2f s  p95 %.2f s  p99 %.2f s  (silent bins: %.1f%%)",
		s.UpdateLatencyS.P50, s.UpdateLatencyS.P95, s.UpdateLatencyS.P99, 100*s.SilentFraction)
	p("mean sensor update rate:       %.2f Hz over %d bins", s.MeanUpdateRateHz, s.TotalBins)
	if s.Lifecycle != nil {
		p("")
		p("device lifecycle (%s):", s.Lifecycle.Devices)
		for _, a := range s.Lifecycle.Archetypes {
			p("  %-8s %d homes, outage %.1f%% of bins (per-home mean %.1f%%)",
				a.Kind, a.Homes, 100*a.OutageBinFraction, a.HomeOutagePct.Mean)
			if a.TimeToFirstUpdateS.N > 0 || a.HomesNeverActive > 0 {
				p("           first update p50 %.1f s  p95 %.1f s  (never: %d/%d)",
					a.TimeToFirstUpdateS.P50, a.TimeToFirstUpdateS.P95, a.HomesNeverActive, a.Homes)
			}
			if a.UpdateIntervalS.N > 0 {
				p("           update interval p50 %.2f s  p95 %.2f s  (%.1f updates/home)",
					a.UpdateIntervalS.P50, a.UpdateIntervalS.P95, a.UpdatesPerHomeMean)
			}
			if a.FramesPerHomeMean > 0 {
				p("           frames/home %.1f", a.FramesPerHomeMean)
			}
			if a.SoCPct.N > 0 {
				p("           soc p50 %.2f%%  p95 %.2f%%  final %.2f%%  min %.2f%%",
					a.SoCPct.P50, a.SoCPct.P95, a.FinalSoCPctMean, a.MinSoCPctMean)
			}
			if a.HomesCharged > 0 || (a.ChargeTimeS.N == 0 && isChargerName(a.Kind)) {
				p("           charged %d/%d homes, charge time p50 %.2f h  p95 %.2f h",
					a.HomesCharged, a.Homes, a.ChargeTimeS.P50/3600, a.ChargeTimeS.P95/3600)
			}
		}
	}
	p("")
	p("occupancy CDF (per-home mean cumulative %%):")
	for _, pt := range s.HomeOccupancyCDF {
		p("  %7.1f%%  %5.3f", pt.X, pt.Y)
	}
	return werr
}

package fleet

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/deploy"
)

// testConfig keeps the packet-level work small enough for unit tests
// while still exercising every aggregate.
func testConfig(homes, workers int) Config {
	return Config{
		Homes:    homes,
		Seed:     42,
		Workers:  workers,
		Hours:    2,
		BinWidth: 30 * time.Minute,
		Window:   2 * time.Millisecond,
	}
}

// TestDeterministicAcrossWorkerCounts is the fleet's core guarantee:
// the same seed yields bit-for-bit identical serialized output whether
// the homes run on one worker or eight.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	serial, err := Run(context.Background(), testConfig(12, 1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(context.Background(), testConfig(12, 8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Summarize(), parallel.Summarize()) {
		t.Errorf("summaries diverged across worker counts:\n1: %+v\n8: %+v",
			serial.Summarize(), parallel.Summarize())
	}
	// The three serialization formats must also match byte for byte.
	for _, enc := range []struct {
		name  string
		write func(*Result, *bytes.Buffer) error
	}{
		{"json", func(r *Result, b *bytes.Buffer) error { return r.WriteJSON(b) }},
		{"csv", func(r *Result, b *bytes.Buffer) error { return r.WriteCSV(b) }},
		{"text", func(r *Result, b *bytes.Buffer) error { return r.WriteText(b) }},
	} {
		var a, b bytes.Buffer
		if err := enc.write(serial, &a); err != nil {
			t.Fatalf("%s (serial): %v", enc.name, err)
		}
		if err := enc.write(parallel, &b); err != nil {
			t.Fatalf("%s (parallel): %v", enc.name, err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s output differs between 1 and 8 workers", enc.name)
		}
	}
	// Welford moments are order-sensitive; the ordered reduce must make
	// them identical too, not merely close.
	if serial.OccW != parallel.OccW || serial.HarvestW != parallel.HarvestW {
		t.Error("Welford aggregates diverged across worker counts")
	}
}

// TestDeterministicAcrossWorkerCountsExactPath re-pins worker-count
// invariance with the operating-point surface bypassed: the guarantee
// must hold on both solver paths, not just the cached default.
func TestDeterministicAcrossWorkerCountsExactPath(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: exact rectifier solves per bin")
	}
	cfg := testConfig(4, 1)
	cfg.Exact = true
	serial, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	parallel, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Summarize(), parallel.Summarize()) {
		t.Error("exact-path summaries diverged across worker counts")
	}
}

// TestExactVsSurfaceParity is the fleet-level ε check: the same fleet
// run with and without the operating-point surface must agree exactly on
// everything occupancy-derived (the surface never touches the packet
// simulation), bit-for-bit on boot decisions (the guard band resolves
// threshold-adjacent bins with the exact solver), and within the
// surface's certified ε on the harvest- and rate-derived means.
func TestExactVsSurfaceParity(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: exact rectifier solves per bin")
	}
	cfg := testConfig(6, 2)
	surf, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Exact = true
	exact, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Occupancy is computed upstream of the solve: identical, not close.
	if surf.OccW != exact.OccW {
		t.Errorf("occupancy moments diverged: surface %+v, exact %+v", surf.OccW, exact.OccW)
	}
	if surf.TotalBins != exact.TotalBins || surf.SilentBins != exact.SilentBins {
		t.Errorf("bin/boot accounting diverged: surface %d/%d, exact %d/%d",
			surf.TotalBins, surf.SilentBins, exact.TotalBins, exact.SilentBins)
	}
	// Harvest and rate pass through the solve: ε-close. The bound is
	// relative with a small absolute floor for all-silent fleets.
	const eps = 1e-6
	close := func(name string, a, b float64) {
		t.Helper()
		if math.Abs(a-b) > math.Max(eps*math.Abs(b), 1e-9) {
			t.Errorf("%s diverged beyond ε: surface %v, exact %v", name, a, b)
		}
	}
	close("mean harvest", surf.HarvestW.Mean, exact.HarvestW.Mean)
	close("mean rate", surf.RateW.Mean, exact.RateW.Mean)
}

// TestSingleHomeFleetMatchesDeployRunner pins the shared code path: a
// one-home fleet must reproduce deploy.Run's summary for the same home
// exactly, because the fleet's RunBatch is bin-for-bin identical to the
// RunStream that deploy.Run materializes (deploy's parity suite).
func TestSingleHomeFleetMatchesDeployRunner(t *testing.T) {
	cfg, err := testConfig(1, 1).withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := SynthesizeHome(cfg, 0)
	direct := deploy.Run(h.HomeConfig, deploy.Options{
		BinWidth:         cfg.BinWidth,
		Window:           cfg.Window,
		Hours:            cfg.Hours,
		SensorDistanceFt: h.SensorFt,
	})
	if got, want := res.OccW.Mean, direct.MeanCumulative(); got != want {
		t.Errorf("fleet mean occupancy %v != deploy runner %v", got, want)
	}
	if res.TotalBins != uint64(len(direct.Cumulative)) {
		t.Errorf("fleet bins %d != deploy bins %d", res.TotalBins, len(direct.Cumulative))
	}
}

func TestSynthesizeHomeDeterministicAndInRange(t *testing.T) {
	cfg, err := DefaultConfig().withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	p := cfg.Population
	seen := map[uint64]bool{}
	for i := 0; i < 300; i++ {
		a := SynthesizeHome(cfg, i)
		b := SynthesizeHome(cfg, i)
		if a != b {
			t.Fatalf("home %d not deterministic: %+v vs %+v", i, a, b)
		}
		if a.Users < p.MinUsers || a.Users > p.MaxUsers {
			t.Errorf("home %d users %d outside [%d,%d]", i, a.Users, p.MinUsers, p.MaxUsers)
		}
		if a.Devices < a.Users || a.Devices > a.Users*p.MaxDevicesPerUser {
			t.Errorf("home %d devices %d outside [%d,%d]", i, a.Devices, a.Users, a.Users*p.MaxDevicesPerUser)
		}
		if a.NeighborAPs < 0 || a.NeighborAPs > p.MaxNeighborAPs {
			t.Errorf("home %d neighbors %d outside [0,%d]", i, a.NeighborAPs, p.MaxNeighborAPs)
		}
		if a.StartHour < 0 || a.StartHour > 23 {
			t.Errorf("home %d start hour %d", i, a.StartHour)
		}
		if a.SensorFt < p.MinSensorFt || a.SensorFt >= p.MaxSensorFt {
			t.Errorf("home %d sensor at %.1f ft outside [%.1f,%.1f)", i, a.SensorFt, p.MinSensorFt, p.MaxSensorFt)
		}
		seen[a.Seed] = true
	}
	if len(seen) < 300 {
		t.Errorf("only %d distinct home seeds out of 300", len(seen))
	}
}

func TestFleetAggregatesSane(t *testing.T) {
	cfg := testConfig(8, 0) // default workers
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalBins != uint64(cfg.Homes*4) {
		t.Fatalf("total bins = %d, want %d", res.TotalBins, cfg.Homes*4)
	}
	s := res.Summarize()
	// Consumer-router occupancies land well inside the paper's band
	// even for a heterogeneous population.
	if s.HomeOccupancyPct.Mean < 30 || s.HomeOccupancyPct.Mean > 250 {
		t.Errorf("mean cumulative occupancy %.1f%% implausible", s.HomeOccupancyPct.Mean)
	}
	if s.HomeOccupancyPct.P50 > s.HomeOccupancyPct.P99 {
		t.Error("percentiles out of order")
	}
	if s.HomeHarvestUW.N != uint64(cfg.Homes) {
		t.Errorf("per-home harvest N = %d, want %d", s.HomeHarvestUW.N, cfg.Homes)
	}
	if s.SilentFraction < 0 || s.SilentFraction > 1 {
		t.Errorf("silent fraction %v outside [0,1]", s.SilentFraction)
	}
	if s.UpdateLatencyS.N+s.SilentBins != s.TotalBins {
		t.Errorf("latency samples %d + silent %d != bins %d",
			s.UpdateLatencyS.N, s.SilentBins, s.TotalBins)
	}
	if len(s.HomeOccupancyCDF) == 0 || s.HomeOccupancyCDF[len(s.HomeOccupancyCDF)-1].Y != 1 {
		t.Error("occupancy CDF missing or not ending at 1")
	}
}

// TestSilentBinsBankNothing pins harvest/silent consistency: a sensor
// placed beyond the battery-free cold-start range never boots, so the
// harvest distribution must report zero banked power for those bins
// rather than the steady-state figure the chain would produce if it
// were somehow already running.
func TestSilentBinsBankNothing(t *testing.T) {
	cfg := testConfig(3, 2)
	cfg.Population = DefaultPopulation()
	cfg.Population.MinSensorFt = 28
	cfg.Population.MaxSensorFt = 30
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SilentFraction() != 1 {
		t.Fatalf("silent fraction = %v, want 1 at 28-30 ft", res.SilentFraction())
	}
	s := res.Summarize()
	if s.BinHarvestUW.Max != 0 || s.HomeHarvestUW.Mean != 0 {
		t.Errorf("silent fleet reports banked power: bin max %v µW, home mean %v µW",
			s.BinHarvestUW.Max, s.HomeHarvestUW.Mean)
	}
	if s.UpdateLatencyS.N != 0 {
		t.Errorf("latency recorded %d samples in an all-silent fleet", s.UpdateLatencyS.N)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Homes: 0},
		{Homes: -5},
		{Homes: 1, Workers: -1},
		{Homes: 1, Hours: -2},
		// Shorter than one logging bin: zero bins per home would yield
		// fabricated all-zero aggregates.
		{Homes: 1, Hours: 0.5, BinWidth: time.Hour},
		{Homes: 1, Population: Population{MinUsers: 3, MaxUsers: 1, MaxDevicesPerUser: 1,
			MaxNeighborAPs: 1, MinSensorFt: 1, MaxSensorFt: 2}},
	}
	for i, cfg := range bad {
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Errorf("config %d (%+v) should be rejected", i, cfg)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg, err := Config{Homes: 3}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Workers <= 0 {
		t.Error("workers not defaulted")
	}
	if cfg.Hours != 24 || cfg.BinWidth != time.Hour {
		t.Errorf("duration defaults wrong: %+v", cfg)
	}
	if cfg.Population == (Population{}) {
		t.Error("population not defaulted")
	}
}

func TestConfigSnapsDurationToWholeBins(t *testing.T) {
	// 105 min at 30 min bins truncates to 3 bins; the resolved config
	// (and thus the serialized report) must say 1.5 h, not 1.75 h.
	cfg, err := Config{Homes: 1, Hours: 1.75, BinWidth: 30 * time.Minute}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Hours != 1.5 {
		t.Errorf("snapped hours = %v, want 1.5", cfg.Hours)
	}
}

// TestSnappedDurationRoundTripsToSameBinCount guards the float round
// trip between the fleet's duration snap and the runner's bin-count
// formula: for awkward bin widths the snapped Hours must re-derive the
// same bin count, never one fewer (and never zero).
func TestSnappedDurationRoundTripsToSameBinCount(t *testing.T) {
	cases := []struct {
		hours float64
		bin   time.Duration
		bins  int
	}{
		{1.2, 65 * time.Minute, 1},
		{8.25, 2 * time.Minute, 247},
		{24, time.Hour, 24},
		{0.999, 7 * time.Second, 513},
	}
	for _, tc := range cases {
		cfg, err := Config{Homes: 1, Hours: tc.hours, BinWidth: tc.bin}.withDefaults()
		if err != nil {
			t.Fatalf("hours=%v bin=%v: %v", tc.hours, tc.bin, err)
		}
		got := (deploy.Options{Hours: cfg.Hours, BinWidth: cfg.BinWidth}).NumBins()
		if got != tc.bins {
			t.Errorf("hours=%v bin=%v: snapped %v re-derives %d bins, want %d",
				tc.hours, tc.bin, cfg.Hours, got, tc.bins)
		}
	}
	// End to end on the cheapest awkward case: one 65-minute bin.
	cfg := testConfig(2, 2)
	cfg.Hours = 1.2
	cfg.BinWidth = 65 * time.Minute
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalBins != 2 {
		t.Errorf("total bins = %d, want 2 (one per home)", res.TotalBins)
	}
}

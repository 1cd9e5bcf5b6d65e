package fleet

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/lifecycle"
)

// lifeTestConfig is testConfig with a mixed device population spanning
// every archetype, so the determinism suite exercises all six ledgers.
func lifeTestConfig(homes, workers int) Config {
	cfg := testConfig(homes, workers)
	cfg.Population = DefaultPopulation()
	var m lifecycle.Mix
	m[lifecycle.TempSensor] = 0.3
	m[lifecycle.RechargingTemp] = 0.15
	m[lifecycle.Camera] = 0.2
	m[lifecycle.Jawbone] = 0.15
	m[lifecycle.LiIon] = 0.1
	m[lifecycle.NiMH] = 0.1
	cfg.Population.Devices = m
	return cfg
}

// TestLifecycleDeterministicAcrossWorkerCounts extends the fleet's
// core bit-for-bit guarantee to the lifecycle engine: a mixed device
// population serializes identically whether its homes (and their
// pooled lifecycle devices) run on one worker or eight.
func TestLifecycleDeterministicAcrossWorkerCounts(t *testing.T) {
	serial, err := Run(context.Background(), lifeTestConfig(12, 1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(context.Background(), lifeTestConfig(12, 8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Summarize(), parallel.Summarize()) {
		t.Errorf("lifecycle summaries diverged across worker counts:\n1: %+v\n8: %+v",
			serial.Summarize().Lifecycle, parallel.Summarize().Lifecycle)
	}
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
	// The per-archetype Welford reductions are order-sensitive; the
	// home-index commit order must make them identical, not merely close.
	for k := range serial.Arch {
		a, b := serial.Arch[k], parallel.Arch[k]
		if a.TTFUW != b.TTFUW || a.OutageW != b.OutageW || a.ChargeTimeW != b.ChargeTimeW ||
			a.FinalSoCW != b.FinalSoCW {
			t.Errorf("archetype %v Welford aggregates diverged across worker counts", lifecycle.Kind(k))
		}
	}
}

// TestLifecycleDoesNotPerturbClassicAggregates pins the label-stream
// isolation of the device draw: enabling a device mix must leave every
// classic aggregate (occupancy, harvest, latency, silent bins)
// bit-identical to the same fleet without one.
func TestLifecycleDoesNotPerturbClassicAggregates(t *testing.T) {
	classic, err := Run(context.Background(), testConfig(8, 3))
	if err != nil {
		t.Fatal(err)
	}
	life, err := Run(context.Background(), lifeTestConfig(8, 3))
	if err != nil {
		t.Fatal(err)
	}
	cs, ls := classic.Summarize(), life.Summarize()
	if cs.HomeOccupancyPct != ls.HomeOccupancyPct || cs.BinOccupancyPct != ls.BinOccupancyPct {
		t.Error("occupancy aggregates changed when the lifecycle engine was enabled")
	}
	if cs.HomeHarvestUW != ls.HomeHarvestUW || cs.UpdateLatencyS != ls.UpdateLatencyS ||
		cs.SilentBins != ls.SilentBins || cs.MeanUpdateRateHz != ls.MeanUpdateRateHz {
		t.Error("energy aggregates changed when the lifecycle engine was enabled")
	}
	if cs.Lifecycle != nil {
		t.Error("classic run reports a lifecycle section")
	}
	if ls.Lifecycle == nil || len(ls.Lifecycle.Archetypes) == 0 {
		t.Fatal("lifecycle run missing its section")
	}
}

// TestLifecycleAggregatesSane checks the bookkeeping of a mixed run:
// archetype home counts partition the fleet, bin counts match the
// horizon, and the per-archetype metrics stay inside their physical
// ranges.
func TestLifecycleAggregatesSane(t *testing.T) {
	cfg := lifeTestConfig(10, 0)
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summarize()
	var homes, bins uint64
	for _, a := range s.Lifecycle.Archetypes {
		homes += a.Homes
		bins += a.TotalBins
		if a.OutageBins > a.TotalBins {
			t.Errorf("%s: outage bins %d exceed total %d", a.Kind, a.OutageBins, a.TotalBins)
		}
		if f := a.OutageBinFraction; f < 0 || f > 1 {
			t.Errorf("%s: outage fraction %v outside [0,1]", a.Kind, f)
		}
		if a.TimeToFirstUpdateS.N+a.HomesNeverActive > a.Homes {
			t.Errorf("%s: first-update accounting exceeds homes: %d + %d > %d",
				a.Kind, a.TimeToFirstUpdateS.N, a.HomesNeverActive, a.Homes)
		}
		if a.HomesCharged > a.Homes {
			t.Errorf("%s: %d charged of %d homes", a.Kind, a.HomesCharged, a.Homes)
		}
		if n := a.SoCPct.N; n > 0 && (a.SoCPct.Min < 0 || a.SoCPct.Max > 100.0000001) {
			t.Errorf("%s: SoC range [%v, %v] outside [0,100]", a.Kind, a.SoCPct.Min, a.SoCPct.Max)
		}
	}
	if homes != uint64(res.Config.Homes) {
		t.Errorf("archetype homes sum to %d, fleet has %d", homes, res.Config.Homes)
	}
	if bins != s.TotalBins {
		t.Errorf("archetype bins sum to %d, fleet logged %d", bins, s.TotalBins)
	}
}

// TestSynthesizeDeviceDeterministicAndDistributed pins the device
// draw: deterministic per (seed, index), independent of the home
// stream, and roughly proportional to the configured shares.
func TestSynthesizeDeviceDeterministicAndDistributed(t *testing.T) {
	cfg, err := lifeTestConfig(1, 1).withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	counts := map[lifecycle.Kind]int{}
	for i := 0; i < 600; i++ {
		a := SynthesizeDevice(cfg, i)
		if b := SynthesizeDevice(cfg, i); a != b {
			t.Fatalf("device draw %d not deterministic: %v vs %v", i, a, b)
		}
		counts[a]++
	}
	for k, share := range cfg.Population.Devices {
		if share <= 0 {
			continue
		}
		want := share / cfg.Population.Devices.Total() * 600
		if got := float64(counts[lifecycle.Kind(k)]); got < want*0.5 || got > want*1.6 {
			t.Errorf("archetype %v drawn %v times, expected ~%v", lifecycle.Kind(k), got, want)
		}
	}
}

// TestDeviceOnlyPopulationFillsDefaults pins the CLI path: a
// population carrying only a device mix resolves to the default
// household distributions plus that mix.
func TestDeviceOnlyPopulationFillsDefaults(t *testing.T) {
	mix, err := lifecycle.ParseMix("temp=0.5,camera=0.5")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := Config{Homes: 2, Population: Population{Devices: mix}}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	want := DefaultPopulation()
	want.Devices = mix
	if cfg.Population != want {
		t.Errorf("device-only population resolved to %+v, want %+v", cfg.Population, want)
	}

	// A negative share must be rejected.
	bad := Population{Devices: lifecycle.Mix{-1}}
	if _, err := (Config{Homes: 2, Population: bad}).withDefaults(); err == nil {
		t.Error("negative device share accepted")
	}
}

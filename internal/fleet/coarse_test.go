package fleet

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/deploy"
	"repro/internal/lifecycle"
)

// coarseConfig mirrors testConfig at the 10ms measurement window the
// coarse tier is certified for (deploy.CoarseOptions): the occupancy
// proxy regresses over measured anchors, so its ε contract is stated
// at the fleet's default window, not the 2ms the other unit tests use
// for speed.
func coarseConfig(homes, workers int) Config {
	return Config{
		Homes:    homes,
		Seed:     42,
		Workers:  workers,
		Hours:    4,
		BinWidth: 20 * time.Minute,
		Window:   10 * time.Millisecond,
		Coarse:   true,
	}
}

// TestCoarseDeterministicAcrossWorkerCounts extends the fleet's core
// guarantee to the coarse tier: anchors, proxies and escalations are
// all derived per home from (seed, index), so worker count cannot
// change a byte of output.
func TestCoarseDeterministicAcrossWorkerCounts(t *testing.T) {
	serial, err := Run(context.Background(), coarseConfig(10, 1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(context.Background(), coarseConfig(10, 8))
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := serial.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := parallel.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("coarse JSON output differs between 1 and 8 workers")
	}
	if serial.OccW != parallel.OccW || serial.HarvestW != parallel.HarvestW {
		t.Error("coarse Welford aggregates diverged across worker counts")
	}
}

// TestCoarseVsExactTierCertification is the fleet-level view of the
// coarse contract certified per-bin in deploy: against the same fleet
// on the exact tier, bin accounting and boot/silence decisions are
// bit-identical, and population magnitude means stay within the
// tier's documented ε.
func TestCoarseVsExactTierCertification(t *testing.T) {
	cfg := coarseConfig(10, 4)
	cfg.Coarse = false
	exact, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Coarse = true
	coarse, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if exact.TotalBins != coarse.TotalBins || exact.SilentBins != coarse.SilentBins {
		t.Errorf("bin/boot accounting diverged: exact %d/%d, coarse %d/%d",
			exact.TotalBins, exact.SilentBins, coarse.TotalBins, coarse.SilentBins)
	}
	within := func(name string, got, want, bound float64) {
		t.Helper()
		denom := math.Max(math.Abs(want), 1e-9)
		if math.Abs(got-want)/denom > bound {
			t.Errorf("%s off by more than %.0f%%: coarse %v vs exact %v", name, 100*bound, got, want)
		}
	}
	within("mean occupancy", coarse.OccW.Mean, exact.OccW.Mean, 0.10)
	within("mean harvest", coarse.HarvestW.Mean, exact.HarvestW.Mean, 0.15)
	within("mean rate", coarse.RateW.Mean, exact.RateW.Mean, 0.15)
}

// TestCoarseRejectsLifecycle pins the configuration contract: the
// lifecycle ledger integrates per-bin magnitudes over time, so the
// coarse tier's per-bin ε would compound outside its certification and
// the combination must fail loudly at validation.
func TestCoarseRejectsLifecycle(t *testing.T) {
	cfg := coarseConfig(2, 1)
	cfg.Population.Devices = lifecycle.Mix{lifecycle.TempSensor: 1}
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Fatal("coarse + lifecycle population accepted; want validation error")
	} else if !strings.Contains(err.Error(), "coarse") {
		t.Fatalf("unexpected error for coarse + lifecycle: %v", err)
	}
}

// TestCoarseRejectsShortWindow pins the coarse tier's envelope: its ε
// is certified at deploy.CoarseCertifiedWindow, so a shorter window is
// refused at validation, naming both windows, while the certified
// window itself runs.
func TestCoarseRejectsShortWindow(t *testing.T) {
	cfg := coarseConfig(2, 1)
	cfg.Window = 2 * time.Millisecond
	_, err := Run(context.Background(), cfg)
	if err == nil {
		t.Fatal("coarse tier at a 2ms window accepted; want validation error")
	}
	for _, want := range []string{"coarse", "2ms", "10ms", "certified"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	cfg.Window = deploy.CoarseCertifiedWindow
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatalf("coarse tier at the certified window refused: %v", err)
	}
	cfg.Window, cfg.Coarse = 2*time.Millisecond, false
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatalf("exact tier at a 2ms window refused: %v", err)
	}
}

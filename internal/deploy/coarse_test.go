package deploy

import (
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/xrand"
)

// guardSeedOpts is the fleet's default home shape: 24 one-hour bins at
// the coarse tier's certified 10 ms window.
func guardSeedOpts(distanceFt float64) Options {
	return Options{BinWidth: time.Hour, Window: CoarseCertifiedWindow, Hours: 24, SensorDistanceFt: distanceFt}
}

// checkCoarseGuardSeed runs one home on the coarse tier and checks every
// proxied bin's verdict against a direct guard query (silentAt) at that
// bin's own proxied occupancy:
//
//   - an accepted awake bin is not silent at (1-Guard);
//   - an accepted silent bin is silent at (1+Guard);
//   - a guard-disagree escalation really disagrees, an occ-fit-unstable
//     one had a stable awake verdict, and a consensus-split one has
//     anchors that disagree.
//
// The seeded frontiers must answer exactly as one query per bin would.
// It returns the home's guard-query count, read from its trace.
func checkCoarseGuardSeed(t *testing.T, smp *Sampler, cfg HomeConfig, opts Options) int {
	t.Helper()
	copts := CoarseOptions{}.withDefaults()
	n := opts.NumBins()
	anchor := func(bin int) bool { return bin%copts.Stride == 0 || bin == n-1 }

	// The trace records the fits, guard queries and escalations but not
	// the surface outcomes, and is detached once escalations start
	// simulating: at most 4 fits, 5 anchors, 2 seeds and two events per
	// proxied bin, well inside one ring.
	ht := trace.NewRecorder().NewWorker().StartHome(0, "coarse/guard-seed", 1)
	smp.TraceHome(nil)
	smp.tr = ht
	var b BinBatch
	proxied := make([][3]float64, n)
	each := func(bin int) bool {
		if !anchor(bin) {
			// Escalations simulate after the guard pass, over the
			// proxied occupancy.
			smp.tr = nil
			proxied[bin] = b.Occupancy[bin]
		}
		return true
	}
	if !smp.RunBatchCoarse(cfg, opts, copts, &b, each) {
		t.Fatal("RunBatchCoarse stopped with an always-true gate")
	}
	smp.tr = nil
	dump := ht.Dump()
	if dump.Dropped != 0 {
		t.Fatalf("trace ring dropped %d events; the guard pass is not fully observed", dump.Dropped)
	}
	reasons := map[int]string{}
	queries := 0
	for _, e := range dump.Events {
		switch e.Kind {
		case "escalate":
			reasons[e.Bin] = e.Detail
		case "guard-query":
			queries++
		}
	}

	for bin := 0; bin < n; bin++ {
		if anchor(bin) {
			continue
		}
		silent, agree := anchorVerdict(&b, bin, copts.Stride)
		occ := b.Occupancy[bin]
		if b.Simulated[bin] {
			occ = proxied[bin]
		}
		// The direct guard query at the verdict's adversarial end.
		var stable bool
		if silent {
			stable = smp.silentAt(bin, opts, occ, 1+copts.Guard)
		} else {
			stable = !smp.silentAt(bin, opts, occ, 1-copts.Guard)
		}
		if !b.Simulated[bin] {
			if !agree {
				t.Fatalf("bin %d proxied over anchors that disagree", bin)
			}
			if got := b.SensorRate[bin] <= 0; got != silent {
				t.Fatalf("bin %d proxied as silent=%v, anchors say %v", bin, got, silent)
			}
			if !stable {
				t.Fatalf("bin %d accepted as silent=%v, but a direct guard query at occupancy %v flips it", bin, silent, occ)
			}
			continue
		}
		switch r := reasons[bin]; r {
		case trace.EscConsensusSplit.String():
			if agree {
				t.Fatalf("bin %d escalated as %s, but its anchors agree", bin, r)
			}
		case trace.EscGuardDisagree.String():
			if !agree || stable {
				t.Fatalf("bin %d escalated as %s (anchors agree %v, silent %v), but a direct query at occupancy %v holds the verdict",
					bin, r, agree, silent, occ)
			}
		case trace.EscOccFitUnstable.String():
			if !agree || silent || !stable {
				t.Fatalf("bin %d escalated as %s (anchors agree %v, silent %v, direct query stable %v)",
					bin, r, agree, silent, stable)
			}
		default:
			t.Fatalf("bin %d simulated off the anchor grid with no escalate event", bin)
		}
	}
	return queries
}

// TestCoarseGuardSeed is the table form of FuzzCoarseGuardSeed, over
// random homes in two placement bands. From 4 to 16 ft, which spans the
// fleet's default 5–15 ft, a home's bins are all awake, and the seeded
// frontiers must settle a typical home in at most two guard queries on
// average, one per verdict side. From 16 to 24 ft, the boot-threshold
// band, bins go silent, anchors split and seeds fail, so the per-bin
// fallback runs. Every proxied verdict in both bands must match a direct
// guard query.
func TestCoarseGuardSeed(t *testing.T) {
	rng := xrand.NewFromLabel(25, "coarse/guard-seed")
	smp := NewSampler()
	const homes = 40
	queries := 0
	for i := 0; i < homes; i++ {
		queries += checkCoarseGuardSeed(t, smp, randomHome(rng), guardSeedOpts(rng.Uniform(4, 16)))
	}
	if avg := float64(queries) / homes; avg > 2 {
		t.Fatalf("%.2f guard queries per home from 4 to 16 ft, want at most 2", avg)
	}
	// Threshold homes pay the exact solver inside the surface's guard
	// band on most queries, the check's included, so a few must do.
	for i := 0; i < 5; i++ {
		checkCoarseGuardSeed(t, smp, randomHome(rng), guardSeedOpts(rng.Uniform(16, 24)))
	}
}

// FuzzCoarseGuardSeed drives checkCoarseGuardSeed from fuzzed homes and
// placements: the seed draws the home as randomHome does, and the
// distance maps to 4–24 ft in 0.01 ft steps, so both placement bands of
// TestCoarseGuardSeed are reached.
func FuzzCoarseGuardSeed(f *testing.F) {
	f.Add(uint64(1), uint16(0))
	f.Add(uint64(2), uint16(600))
	f.Add(uint64(3), uint16(1400))
	smp := NewSampler()
	f.Fuzz(func(t *testing.T, seed uint64, dist uint16) {
		cfg := randomHome(xrand.New(seed))
		checkCoarseGuardSeed(t, smp, cfg, guardSeedOpts(4+float64(dist%2001)/100))
	})
}

package fleet

import (
	"context"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/profiling"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// raceEnabled is set in race builds (race_test.go).
var raceEnabled bool

// TestFleetSteadyStateAllocs pins the fleet loop at zero allocations per
// steady-state home: a run of 2N homes may allocate no more than a run
// of N homes, up to 0.05 per extra home. Each home's column array,
// ledger bins and observation handle come back to its slot (or, with
// one worker, to the spare) once the reducer has committed the home, so
// only set-up allocates: the ring, and each worker's fresh sampler,
// which grows to the largest home it has run and so adds a few
// allocations as a run meets larger homes. A traced run allocates
// nothing per home either: only while a CPU profile records does each
// home pay its pprof goroutine labels, and the profiled case bounds it
// at that cost instead.
//
// The GC is off while a run measures, and each size counts the fewest
// of three runs: a sharded run's counts scatter from run to run (which
// homes each worker's sampler grows on, a goroutine stack), and the
// scatter is not the homes' cost.
func TestFleetSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each shape six times over hundreds of homes")
	}
	if raceEnabled {
		t.Skip("allocation budget does not hold under the race detector")
	}
	lifecycle72h := lifeTestConfig(200, 1)
	lifecycle72h.Hours, lifecycle72h.BinWidth = 72, time.Hour
	for _, tc := range []struct {
		name  string
		cfg   Config // cfg.Homes is N
		hooks func() Hooks
		// perHome bounds the allocations per extra home.
		perHome float64
	}{
		{"exact/workers=1", testConfig(1000, 1), nil, 0.05},
		{"exact/workers=2", testConfig(1000, 2), nil, 0.05},
		{"coarse", coarseConfig(1000, 1), nil, 0.05},
		{"lifecycle-72h", lifecycle72h, nil, 0.05},
		{"telemetry", testConfig(1000, 1), func() Hooks { return Hooks{Telemetry: telemetry.NewRun()} }, 0.05},
		{"traced", testConfig(1000, 1), func() Hooks { return Hooks{Trace: trace.NewRecorder()} }, 0.05},
		// Five per home under a CPU profile, all of them the home's
		// pprof labels: pprof.Labels builds its label slice (2),
		// pprof.WithLabels its label map (1) and context (1), and
		// strconv.Itoa the index (1, past 99). The rest of the bound is
		// for the profiler's own goroutine, which allocates as samples
		// of newly labelled homes arrive.
		{"profiled", testConfig(1000, 1), nil, 5.25},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "profiled" {
				stop, err := profiling.Start(filepath.Join(t.TempDir(), "cpu.prof"), "")
				if err != nil {
					t.Skip("a CPU profile is already recording:", err)
				}
				defer stop()
			}
			mallocs := func(homes int) uint64 {
				cfg := tc.cfg
				cfg.Homes = homes
				var h Hooks
				if tc.hooks != nil {
					h = tc.hooks()
				}
				defer debug.SetGCPercent(debug.SetGCPercent(-1))
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				if _, err := RunWith(context.Background(), cfg, h); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&m1)
				return m1.Mallocs - m0.Mallocs
			}
			fewest := func(homes int) uint64 {
				return min(mallocs(homes), mallocs(homes), mallocs(homes))
			}
			n := tc.cfg.Homes
			small, large := fewest(n), fewest(2*n)
			perHome := (float64(large) - float64(small)) / float64(n)
			t.Logf("%d homes: %d allocations, %d homes: %d; %.3f per extra home", n, small, 2*n, large, perHome)
			if perHome >= tc.perHome {
				t.Errorf("%.3f allocations per extra home, want < %.2f", perHome, tc.perHome)
			}
		})
	}
}

package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/profiling"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// TestPartialRunCountsCommittedHomes pins the commit-point fold on a
// run cut short by its deadline: home 2 stalls past the budget while
// other workers race ahead, and the telemetry and trace totals must
// describe exactly the committed prefix — not every home some worker
// happened to finish — at any worker count.
func TestPartialRunCountsCommittedHomes(t *testing.T) {
	for _, pop := range populations {
		for _, workers := range []int{1, 2} {
			cfg := pop.cfg(24, workers)
			cfg.Deadline = 150 * time.Millisecond
			tel, rec := telemetry.NewRun(), trace.NewRecorder()
			res, err := RunWith(context.Background(), cfg, Hooks{
				Telemetry: tel,
				Trace:     rec,
				Faults:    mustFaults(t, cfg, "home.slow@2,delay=400ms"),
			})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", pop.name, workers, err)
			}
			if !res.Partial || res.CommittedHomes >= cfg.Homes {
				t.Fatalf("%s workers=%d: partial=%v committed=%d, want a partial deadline run",
					pop.name, workers, res.Partial, res.CommittedHomes)
			}
			snap := tel.Snapshot()
			committed := uint64(res.CommittedHomes)
			if got := snap.Counters[telemetry.CounterBins]; got != res.TotalBins {
				t.Errorf("%s workers=%d: bins = %d, want Result.TotalBins = %d", pop.name, workers, got, res.TotalBins)
			}
			if got := snap.Counters[telemetry.CounterHomes]; got != committed {
				t.Errorf("%s workers=%d: homes = %d, want CommittedHomes = %d", pop.name, workers, got, committed)
			}
			if got := snap.Histograms[telemetry.HistHomeHarvestUW].N; got != committed {
				t.Errorf("%s workers=%d: home_harvest_uw.n = %d, want CommittedHomes = %d", pop.name, workers, got, committed)
			}
			if got := snap.Counters[telemetry.CounterSilentBins]; got != res.SilentBins {
				t.Errorf("%s workers=%d: silent_bins = %d, want the committed homes' %d", pop.name, workers, got, res.SilentBins)
			}
			if got := rec.Summary().HomesTraced; got != res.CommittedHomes {
				t.Errorf("%s workers=%d: homes_traced = %d, want CommittedHomes = %d", pop.name, workers, got, res.CommittedHomes)
			}
		}
	}
}

// TestTraceOnlyRecordsWarmupSpan pins the phase spans of an observed
// run: the surface warm-up gets its own span whether the run traces,
// collects telemetry, or both, and a telemetry-only run's tally-only
// recorder still feeds telemetry's sched counters and shard occupancy.
func TestTraceOnlyRecordsWarmupSpan(t *testing.T) {
	want := []string{trace.SpanSurfaceWarmup, trace.SpanSimulate}
	for _, tc := range []struct {
		name       string
		tel, trace bool
	}{
		{"trace", false, true},
		{"trace+telemetry", true, true},
		{"telemetry", true, false},
	} {
		var h Hooks
		if tc.tel {
			h.Telemetry = telemetry.NewRun()
		}
		if tc.trace {
			h.Trace = trace.NewRecorder()
		}
		if _, err := RunWith(context.Background(), testConfig(2, 1), h); err != nil {
			t.Fatal(err)
		}
		if tc.trace {
			var phases []string
			for _, sp := range h.Trace.Summary().Sched.Spans {
				if sp.TID == 0 {
					phases = append(phases, sp.Name)
				}
			}
			if !reflect.DeepEqual(phases, want) {
				t.Errorf("%s: trace phase spans = %v, want %v", tc.name, phases, want)
			}
		}
		if !tc.tel {
			continue
		}
		snap := h.Telemetry.Snapshot()
		var spans []string
		for _, sp := range snap.Spans {
			spans = append(spans, sp.Name)
		}
		if !reflect.DeepEqual(spans, want) {
			t.Errorf("%s: telemetry spans = %v, want %v", tc.name, spans, want)
		}
		if want := map[string]uint64{telemetry.SchedSlotWaits: 0}; !reflect.DeepEqual(snap.Sched, want) {
			t.Errorf("%s: sched = %v, want %v: one worker never waits on a slot", tc.name, snap.Sched, want)
		}
		if sh := snap.Histograms[telemetry.HistShardHomes]; sh.N != 1 || sh.Max != 2 {
			t.Errorf("%s: shard_homes = %+v, want one shard of 2 homes", tc.name, sh)
		}
	}
}

// TestObserversReadableMidRun reads every observer export while a
// two-worker run commits homes into them — what a metrics scrape does —
// so the race detector sees snapshots, summaries and exports interleave
// with the workers' spans and the reducer's commits.
func TestObserversReadableMidRun(t *testing.T) {
	tel, rec := telemetry.NewRun(), trace.NewRecorder()
	done := make(chan error, 1)
	go func() {
		_, err := RunWith(context.Background(), testConfig(16, 2), Hooks{Telemetry: tel, Trace: rec})
		done <- err
	}()
	for running := true; running; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		default:
		}
		_ = tel.Snapshot()
		_ = rec.Summary()
		if err := tel.WritePrometheus(io.Discard); err != nil {
			t.Fatal(err)
		}
		if err := rec.WriteChrome(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	if got := tel.Snapshot().Histograms[telemetry.HistHomeWallMS].N; got != 16 {
		t.Errorf("home_wall_ms.n = %d after the run, want 16", got)
	}
}

// TestWallSketchResolvesHomes pins the scheduling sketches' resolution
// on a traced run with one stalled home: the per-home wall sketch must
// resolve the fleet's sub-millisecond homes, its p50 far below the
// stalled home's maximum, which lands in the sketch's overflow, and
// every histogram's mean must lie within its [min, max].
func TestWallSketchResolvesHomes(t *testing.T) {
	cfg := testConfig(24, 2)
	tel, rec := telemetry.NewRun(), trace.NewRecorder()
	if _, err := RunWith(context.Background(), cfg, Hooks{
		Telemetry: tel,
		Trace:     rec,
		Faults:    mustFaults(t, cfg, "home.slow@3,delay=150ms"),
	}); err != nil {
		t.Fatal(err)
	}
	snap := tel.Snapshot()
	wall := snap.Histograms[telemetry.HistHomeWallMS]
	if wall.N != 24 || wall.Max < 150 || wall.Overflow != 1 {
		t.Errorf("home_wall_ms = %+v, want 24 homes, the stalled one (≥150 ms) in the overflow", wall)
	}
	if wall.P50 > wall.Max/10 || wall.P50 <= wall.Min {
		t.Errorf("home_wall_ms p50 = %v, want it resolved within (min %v, max/10 %v]", wall.P50, wall.Min, wall.Max/10)
	}
	for name, h := range snap.Histograms {
		if h.Mean < h.Min || h.Mean > h.Max {
			t.Errorf("%s mean = %v, outside [min %v, max %v]", name, h.Mean, h.Min, h.Max)
		}
	}
	if q := rec.Summary().Sched.HomeWallMS; q.P50 != wall.P50 || q.Max != wall.Max {
		t.Errorf("trace home_wall_ms = %+v, want telemetry's p50 %v and max %v", q, wall.P50, wall.Max)
	}
}

// TestRecycledHandlesStayOutOfRetainedRings pins the recycling of
// observation handles: the recorder keeps the rings of failed and top-K
// most-escalated homes, and only the handles it lets go return to the
// workers. A traced coarse fleet with its sensors at 16-24 ft escalates
// in most homes, so the top-K table churns and releases handles that
// later homes reuse, and a quarantined home keeps its ring beside them.
// Every retained ring must read at the end of the run as it did when
// its home entered the table, and the deterministic summary (everything
// outside sched) must be identical at 1 and 8 workers and between two
// back-to-back runs in one process, each with its own free list.
func TestRecycledHandlesStayOutOfRetainedRings(t *testing.T) {
	if testing.Short() {
		t.Skip("near the boot threshold the coarse tier's guard queries solve exactly")
	}
	run := func(workers int) []byte {
		cfg := coarseConfig(24, workers)
		cfg.Hours = 2
		cfg.Population = DefaultPopulation()
		cfg.Population.MinSensorFt, cfg.Population.MaxSensorFt = 16, 24
		cfg.Policy = FailurePolicy{Skip: true}
		rec := trace.NewRecorder()
		entered := make(map[int]trace.HomeSummary) // each ring as it entered the table
		var held map[int]bool
		evicted := 0
		_, err := RunWith(context.Background(), cfg, Hooks{
			Trace:  rec,
			Faults: mustFaults(t, cfg, "home.panic@5,times=-1"),
			Home: func(HomeRecord) bool {
				now := make(map[int]bool)
				for _, hs := range rec.Summary().Retained {
					now[hs.Index] = true
					if _, ok := entered[hs.Index]; !ok {
						entered[hs.Index] = hs
					}
				}
				for idx := range held {
					if !now[idx] {
						evicted++
					}
				}
				held = now
				return true
			},
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		s := rec.Summary()
		if evicted == 0 {
			t.Errorf("workers=%d: no handle left the top-K table, so none was recycled from it", workers)
		}
		failed := 0
		for _, hs := range s.Retained {
			if hs.Retained == "failed" {
				failed++
			}
			if !reflect.DeepEqual(hs, entered[hs.Index]) {
				t.Errorf("workers=%d: home %d's retained ring changed after it was retained:\nthen %+v\nnow  %+v",
					workers, hs.Index, entered[hs.Index], hs)
			}
		}
		if failed != 1 {
			t.Errorf("workers=%d: %d failed homes retained, want the quarantined home 5", workers, failed)
		}
		t.Logf("workers=%d: %d retained, %d evicted from the top-K", workers, len(s.Retained), evicted)
		s.Sched = nil
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serial := run(1)
	if again := run(1); !bytes.Equal(serial, again) {
		t.Errorf("trace summary differs between back-to-back runs:\nfirst  %s\nsecond %s", serial, again)
	}
	if parallel := run(8); !bytes.Equal(serial, parallel) {
		t.Errorf("trace summary differs between 1 and 8 workers:\n1: %s\n8: %s", serial, parallel)
	}
}

// TestRingBoundsRunAhead pins the sharded loop's memory bound from the
// trace's home spans: a worker starts home i only once home
// i − len(ring) has committed, so one slow home holds every other worker
// within one ring of it. Home 5 stalls for 200 ms, time enough for the
// other worker to run every later home if nothing held it back.
func TestRingBoundsRunAhead(t *testing.T) {
	cfg := testConfig(64, 2)
	rec := trace.NewRecorder()
	h := Hooks{Trace: rec, Faults: mustFaults(t, cfg, "home.slow@5,delay=200ms")}
	if _, err := RunWith(context.Background(), cfg, h); err != nil {
		t.Fatal(err)
	}
	spans := rec.Summary().Sched.Spans
	end5 := -1.0
	for _, sp := range spans {
		if sp.Name == "home" && sp.Home == 5 {
			end5 = sp.StartUS + sp.DurUS
		}
	}
	if end5 < 0 {
		t.Fatal("no home span for the stalled home 5")
	}
	bound := 5 + slotsPerWorker*cfg.Workers
	var ahead, early []int
	for _, sp := range spans {
		if sp.Name == "home" && sp.Home > 5 && sp.StartUS < end5 {
			if ahead = append(ahead, sp.Home); sp.Home >= bound {
				early = append(early, sp.Home)
			}
		}
	}
	if len(early) > 0 {
		t.Errorf("homes %v started before home 5 ended; none from %d on may", early, bound)
	}
	// The other worker must have filled the ring, or the bound was never
	// tested.
	if len(ahead) < bound-6 {
		t.Errorf("homes %v started while home 5 stalled, want all of 6..%d", ahead, bound-1)
	}
}

// TestProfileLabelsScopedToHomes pins the homes' pprof labels: while a
// CPU profile records, a home runs under its (phase, home) labels on
// the goroutine that runs it, and the labels end with the home. With
// one worker the homes run inline on the caller's goroutine, which gets
// its own labels back when RunWith returns rather than keeping the last
// home's. The run is traced, which labels nothing by itself.
func TestProfileLabelsScopedToHomes(t *testing.T) {
	stop, err := profiling.Start(filepath.Join(t.TempDir(), "cpu.prof"), "")
	if err != nil {
		t.Skip("a CPU profile is already recording:", err)
	}
	defer stop()
	goroutines := func() string {
		var b strings.Builder
		_ = pprof.Lookup("goroutine").WriteTo(&b, 1)
		return b.String()
	}
	for _, workers := range []int{1, 2} {
		cfg := testConfig(6, workers)
		// Home 3 stalls until its labels have been seen, then the run is
		// cancelled.
		h := Hooks{Trace: trace.NewRecorder(), Faults: mustFaults(t, cfg, "home.slow@3,delay=10s")}
		pprof.Do(context.Background(), pprof.Labels("caller", "test"), func(ctx context.Context) {
			ctx, cancel := context.WithCancel(ctx)
			defer cancel()
			seen := make(chan bool, 1)
			go func() {
				defer cancel()
				const home3 = `# labels: {"caller":"test", "home":"3", "phase":"simulate"}`
				deadline := time.Now().Add(5 * time.Second)
				for time.Now().Before(deadline) {
					if strings.Contains(goroutines(), home3) {
						seen <- true
						return
					}
					time.Sleep(time.Millisecond)
				}
				seen <- false
			}()
			if _, err := RunWith(ctx, cfg, h); !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d: RunWith returned %v, want context.Canceled", workers, err)
			}
			if !<-seen {
				t.Errorf("workers=%d: home 3 never ran under its labels", workers)
			}
			after := goroutines()
			if strings.Contains(after, `"home":`) {
				t.Errorf("workers=%d: a home's labels outlived it:\n%s", workers, after)
			}
			if !strings.Contains(after, `# labels: {"caller":"test"}`) {
				t.Errorf("workers=%d: the caller's labels did not come back:\n%s", workers, after)
			}
		})
	}
}

package fleet

import (
	"context"
	"io"
	"reflect"
	"testing"
	"time"

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
		hits, okHits := snap.Sched[telemetry.SchedPoolHits]
		misses, okMisses := snap.Sched[telemetry.SchedPoolMisses]
		if !okHits || !okMisses || len(snap.Sched) != 2 || hits+misses != 1 {
			t.Errorf("%s: sched = %v, want one pool acquire under both keys", tc.name, snap.Sched)
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

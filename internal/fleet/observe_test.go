package fleet

import (
	"context"
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

// TestTraceOnlyRecordsWarmupSpan pins the phase spans of a traced run:
// the surface warm-up gets its own span whether or not telemetry is
// also collected.
func TestTraceOnlyRecordsWarmupSpan(t *testing.T) {
	for _, withTel := range []bool{false, true} {
		rec := trace.NewRecorder()
		h := Hooks{Trace: rec}
		if withTel {
			h.Telemetry = telemetry.NewRun()
		}
		if _, err := RunWith(context.Background(), testConfig(2, 1), h); err != nil {
			t.Fatal(err)
		}
		var phases []string
		for _, sp := range rec.Summary().Sched.Spans {
			if sp.TID == 0 {
				phases = append(phases, sp.Name)
			}
		}
		want := []string{trace.SpanSurfaceWarmup, trace.SpanSimulate}
		if !reflect.DeepEqual(phases, want) {
			t.Errorf("telemetry=%v: phase spans = %v, want %v", withTel, phases, want)
		}
	}
}

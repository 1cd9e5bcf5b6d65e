package trace_test

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/fleet"
	"repro/internal/trace"
)

// TestWriteChromeFleetMatchesReference certifies the streamed Chrome
// export byte for byte against the reference export on real traced
// runs: a coarse fleet at 16–24 ft, where homes escalate and the
// retained top-K carries rings, with home 5 failing every attempt under
// a Skip policy, at 1 and 8 workers. Each export's complete spans must
// also be the summary's span list, in timestamp order: both read one
// store.
func TestWriteChromeFleetMatchesReference(t *testing.T) {
	for _, workers := range []int{1, 8} {
		cfg := fleet.DefaultConfig()
		cfg.Homes = 12
		cfg.Seed = 42
		cfg.Workers = workers
		cfg.Hours = 2
		cfg.BinWidth = 30 * time.Minute
		cfg.Coarse = true
		cfg.Population.MinSensorFt, cfg.Population.MaxSensorFt = 16, 24
		cfg.Policy.Skip = true
		fi, err := faultinject.Parse(cfg.Seed, "home.panic@5,times=-1")
		if err != nil {
			t.Fatal(err)
		}
		rec := trace.NewRecorder()
		if _, err := fleet.RunWith(context.Background(), cfg, fleet.Hooks{Trace: rec, Faults: fi}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if s := rec.Summary(); len(s.Retained) < 2 || s.EscalatedBins == 0 {
			t.Fatalf("workers=%d: %d homes retained, %d bins escalated; want the failed home and escalated ones",
				workers, len(s.Retained), s.EscalatedBins)
		}

		var got, want bytes.Buffer
		if err := rec.WriteChrome(&got); err != nil {
			t.Fatal(err)
		}
		if err := trace.WriteChromeRef(rec, &want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("workers=%d: streamed export (%d bytes) differs from the reference (%d bytes)",
				workers, got.Len(), want.Len())
		}
		checkChromeSpans(t, fmt.Sprintf("workers=%d", workers), got.Bytes(), rec.Summary().Sched.Spans)
	}
}

// checkChromeSpans requires a Chrome export's timestamps never to
// decrease and its complete ("X") events to be the summary's spans, in
// name, thread, home, start and duration, as a stable sort by start
// orders them.
func checkChromeSpans(t *testing.T, name string, export []byte, spans []trace.SpanRecord) {
	t.Helper()
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TID  int     `json:"tid"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Args struct {
				Home int `json:"home"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(export, &doc); err != nil {
		t.Fatalf("%s: export is not valid JSON: %v", name, err)
	}
	type span struct {
		name      string
		tid, home int
		ts, dur   float64
	}
	var got []span
	last := 0.0
	for i, e := range doc.TraceEvents {
		if e.TS < last {
			t.Fatalf("%s: event %d (%s) at ts %v follows ts %v", name, i, e.Name, e.TS, last)
		}
		last = e.TS
		if e.Ph == "X" {
			got = append(got, span{e.Name, e.TID, e.Args.Home, e.TS, e.Dur})
		}
	}
	want := make([]span, len(spans))
	for i, sp := range spans {
		want[i] = span{sp.Name, sp.TID, max(sp.Home, 0), sp.StartUS, sp.DurUS}
	}
	// The export orders spans by start, ties in list order.
	slices.SortStableFunc(want, func(a, b span) int { return cmp.Compare(a.ts, b.ts) })
	if len(got) != len(want) {
		t.Fatalf("%s: export has %d complete spans, summary %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: export span %d = %+v, summary's = %+v", name, i, got[i], want[i])
		}
	}
}

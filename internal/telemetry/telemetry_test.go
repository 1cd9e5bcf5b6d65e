package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/surface"
	"repro/internal/trace"
)

func TestNilRunIsInertAndAllocFree(t *testing.T) {
	var run *Run
	c := run.Counter(CounterBins)
	g := run.Gauge(GaugeBinsPerSec)
	h := run.Histogram(HistHomeHarvestUW, 0, 1, 10)
	sc := run.SurfaceCounters()
	if c != nil || g != nil || h != nil || sc != nil {
		t.Fatalf("nil run must hand out nil metrics: %v %v %v %v", c, g, h, sc)
	}
	if rec := Bind(run, nil); rec != nil {
		t.Fatalf("nil run bound a recorder: %v", rec)
	}
	end := run.Span(trace.SpanSimulate)

	allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(7)
		g.Set(1.5)
		h.Observe(2.5)
		sc.SurfaceOutcome(3, surface.OutcomeHit)
		run.CommitHome(Home{SilentBins: 3, HarvestUW: 4.5})
	})
	if allocs != 0 {
		t.Fatalf("disabled telemetry allocated %v times per op", allocs)
	}
	end()
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatalf("nil metrics must read zero")
	}
	if snap := run.Snapshot(); !reflect.DeepEqual(snap, Snapshot{}) {
		t.Fatalf("nil run snapshot = %+v, want zero", snap)
	}
	if err := run.WritePrometheus(io.Discard); err != nil {
		t.Fatalf("nil run WritePrometheus: %v", err)
	}
}

func TestCountersGaugesHistograms(t *testing.T) {
	run := NewRun()
	run.Counter(CounterHomes).Add(5)
	run.Counter(CounterHomes).Inc()
	rec := Bind(run, nil)
	rec.ObserveShard(6, 3)
	run.Gauge(GaugeBinsPerSec).Set(123.5)
	h := run.Histogram("x", 0, 10, 100)
	for i := 0; i < 10; i++ {
		h.Observe(float64(i))
	}

	snap := run.Snapshot()
	if got := snap.Counters[CounterHomes]; got != 6 {
		t.Fatalf("homes = %d, want 6", got)
	}
	if want := map[string]uint64{SchedSlotWaits: 3}; !reflect.DeepEqual(snap.Sched, want) {
		t.Fatalf("sched = %v, want %v", snap.Sched, want)
	}
	if _, ok := snap.Counters[SchedSlotWaits]; ok {
		t.Fatalf("sched counter leaked into work counters")
	}
	if got := snap.Gauges[GaugeBinsPerSec]; got != 123.5 {
		t.Fatalf("gauge = %v, want 123.5", got)
	}
	hs := snap.Histograms["x"]
	if hs.N != 10 || hs.Min != 0 || hs.Max != 9 {
		t.Fatalf("histogram snapshot = %+v", hs)
	}
}

func TestEmptyHistogramSnapshotIsFinite(t *testing.T) {
	run := NewRun()
	run.Histogram("empty", 0, 1, 10)
	snap := run.Snapshot()
	if hs := snap.Histograms["empty"]; hs != (HistogramSnapshot{}) {
		t.Fatalf("empty histogram snapshot = %+v, want zero", hs)
	}
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("snapshot with empty histogram must marshal: %v", err)
	}
}

// TestCommitHome checks the commit-point fold: tallies and output land
// in the work counters, failed homes count their work, faults and
// quarantine but no output, lifecycle counters appear only for a
// lifecycle population, and no scheduling diagnostic appears without
// the recorder's commits.
func TestCommitHome(t *testing.T) {
	run := NewRun()
	sc := run.SurfaceCounters()
	sc.SurfaceOutcome(-1, surface.OutcomeGuardBand)
	for i := 0; i < 10; i++ {
		run.CommitHome(Home{
			Tally:      trace.Tally{Bins: 4, SurfaceHits: 8, SurfaceExact: 1, Attempts: 1},
			SilentBins: 1,
			HarvestUW:  float64(10 * i),
		})
	}
	run.CommitHome(Home{
		Tally:  trace.Tally{Faults: 3, Attempts: 3},
		Failed: true,
	})
	snap := run.Snapshot()
	want := map[string]uint64{
		CounterHomes: 10, CounterHomesQuarantined: 1, CounterBins: 40,
		CounterSilentBins: 10, CounterSurfaceHits: 80, CounterSurfaceExact: 10,
		CounterSurfaceGuardBand: 1, CounterFaultsInjected: 3, CounterHomeRetries: 2,
	}
	if !reflect.DeepEqual(snap.Counters, want) {
		t.Fatalf("counters = %v, want %v", snap.Counters, want)
	}
	if h := snap.Histograms[HistHomeHarvestUW]; h.N != 10 || h.Max != 90 {
		t.Fatalf("harvest histogram = %+v, want the 10 committed homes", h)
	}
	if _, ok := snap.Histograms[HistHomeWallMS]; ok || snap.SlowHomes != nil || snap.Sched != nil {
		t.Fatalf("scheduling diagnostics without recorder commits: %+v", snap)
	}

	run.CommitHome(Home{Lifecycle: true, Tally: trace.Tally{Boots: 1, Attempts: 1}, LedgerEvents: 4})
	snap = run.Snapshot()
	if snap.Counters[CounterLifecycleBoots] != 1 || snap.Counters[CounterLifecycleLedger] != 4 {
		t.Fatalf("lifecycle counters = %v", snap.Counters)
	}
}

func TestCountersAreRaceFree(t *testing.T) {
	run := NewRun()
	c := run.Counter(CounterBins)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
}

// TestSnapshotViewsRecorder checks the scheduling view of a run bound
// to a trace recorder: slowest homes, home wall time, shard occupancy,
// slot waits and phase spans all read the recorder, and the
// trace-only root run span stays out of telemetry's span list.
func TestSnapshotViewsRecorder(t *testing.T) {
	run := NewRun()
	rec := trace.NewRecorder()
	if got := Bind(run, rec); got != rec {
		t.Fatalf("Bind = %p, want the trace recorder %p", got, rec)
	}
	endRun := rec.Span(trace.SpanRun)
	endSim := run.Span(trace.SpanSimulate)
	w := rec.NewWorker()
	for i := 0; i < 3; i++ {
		ht := w.StartHome(i, "fleet/home", 1)
		w.EndHome(ht)
		rec.CommitHome(ht, false)
	}
	rec.ObserveShard(3, 1)
	endSim()
	endRun()

	snap, sum := run.Snapshot(), rec.Summary().Sched
	if !reflect.DeepEqual(snap.SlowHomes, sum.SlowestHomes) || len(snap.SlowHomes) != 3 {
		t.Errorf("slow homes = %+v, want the trace's %+v", snap.SlowHomes, sum.SlowestHomes)
	}
	h := snap.Histograms[HistHomeWallMS]
	if got := (trace.WallQuantiles{N: h.N, P50: h.P50, P99: h.P99, Max: h.Max}); got != sum.HomeWallMS {
		t.Errorf("home_wall_ms = %+v, want the trace's %+v", got, sum.HomeWallMS)
	}
	if h := snap.Histograms[HistShardHomes]; h.N != 1 || h.Max != 3 {
		t.Errorf("shard_homes = %+v, want one shard of 3", h)
	}
	if want := map[string]uint64{SchedSlotWaits: 1}; !reflect.DeepEqual(snap.Sched, want) {
		t.Errorf("sched = %v, want %v", snap.Sched, want)
	}
	if len(snap.Spans) != 1 || snap.Spans[0].Name != trace.SpanSimulate {
		t.Errorf("spans = %+v, want simulate alone", snap.Spans)
	}

	// An untraced run rebinds the collector to its own tally-only
	// recorder, so it never writes into the earlier run's trace.
	if own := Bind(run, nil); own == rec || run.Snapshot().SlowHomes != nil {
		t.Errorf("Bind(nil) kept the trace recorder bound")
	}
}

func TestSpansRecordWallAndCPU(t *testing.T) {
	run := NewRun()
	end := run.Span(trace.SpanSimulate)
	// Burn a little CPU so the span has something to see.
	x := 0.0
	for i := 0; i < 1_000_000; i++ {
		x += float64(i % 7)
	}
	_ = x
	end()
	snap := run.Snapshot()
	if len(snap.Spans) != 1 {
		t.Fatalf("spans = %+v, want one", snap.Spans)
	}
	sp := snap.Spans[0]
	if sp.Name != trace.SpanSimulate || sp.WallS <= 0 {
		t.Fatalf("span = %+v", sp)
	}
	if sp.CPUS < 0 {
		t.Fatalf("span CPU went negative: %+v", sp)
	}
}

func TestManifestAndConfigHash(t *testing.T) {
	type cfg struct{ Homes, Workers int }
	h1 := HashConfig(cfg{Homes: 10})
	h2 := HashConfig(cfg{Homes: 10})
	h3 := HashConfig(cfg{Homes: 11})
	if h1 != h2 {
		t.Fatalf("hash not deterministic: %s vs %s", h1, h2)
	}
	if h1 == h3 {
		t.Fatalf("distinct configs hash equal: %s", h1)
	}

	run := NewRun()
	run.SetManifest(Manifest{Seed: 42, ConfigHash: h1, Workers: 4, ElapsedS: 1.5, HomesPerSec: 10})
	m := run.Snapshot().Manifest
	if m.Seed != 42 || m.ConfigHash != h1 || m.Workers != 4 {
		t.Fatalf("manifest = %+v", m)
	}
	if m.GoVersion == "" {
		t.Fatalf("manifest must carry a go version")
	}
}

func TestPrometheusExportParses(t *testing.T) {
	run := NewRun()
	run.SetManifest(Manifest{Seed: 9, ConfigHash: "abc", Workers: 2, ElapsedS: 0.5, HomesPerSec: 6})
	run.Counter(CounterHomes).Add(3)
	rec := Bind(run, nil)
	rec.ObserveShard(3, 2)
	run.Gauge(GaugeAllocsPerBin).Set(4.25)
	h := run.Histogram(HistHomeHarvestUW, 0, 500, 100)
	h.Observe(10)
	h.Observe(20)
	run.Span(trace.SpanReportWrite)()

	var buf bytes.Buffer
	if err := run.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	// Minimal exposition-format checks: every non-comment line is
	// "name[{labels}] value", names carry the powifi_ prefix, and the
	// values we set round-trip.
	want := map[string]string{
		"powifi_homes_total":           "3",
		"powifi_slot_waits_total":      "2",
		"powifi_allocs_per_bin":        "4.25",
		"powifi_home_harvest_uw_count": "2",
	}
	seen := map[string]string{}
	for _, line := range strings.Split(out, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed exposition line %q", line)
		}
		name := fields[0]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if !strings.HasPrefix(name, "powifi_") {
			t.Fatalf("metric %q missing powifi_ prefix", fields[0])
		}
		seen[fields[0]] = fields[1]
	}
	for name, val := range want {
		if got := seen[name]; got != val {
			t.Fatalf("%s = %q, want %q\nfull output:\n%s", name, got, val, out)
		}
	}
	if _, ok := seen[`powifi_span_wall_seconds{phase="report_write"}`]; !ok {
		t.Fatalf("span line missing:\n%s", out)
	}

	// A finished run renders identically on every write.
	var again bytes.Buffer
	if err := run.WritePrometheus(&again); err != nil {
		t.Fatal(err)
	}
	if again.String() != out {
		t.Fatalf("repeated export not byte-identical")
	}
}

func TestHandlerServesMetricsAndExpvar(t *testing.T) {
	run := NewRun()
	run.Counter(CounterHomes).Add(7)
	srv := httptest.NewServer(run.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "powifi_homes_total 7") {
		t.Fatalf("/metrics output:\n%s", body)
	}

	resp, err = srv.Client().Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars struct {
		Powifi *Snapshot `json:"powifi"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatalf("expvar JSON: %v", err)
	}
	if vars.Powifi == nil || vars.Powifi.Counters[CounterHomes] != 7 {
		t.Fatalf("expvar snapshot = %+v", vars.Powifi)
	}

	// A second run taking over the expvar slot must not panic and must
	// win the "powifi" var.
	run2 := NewRun()
	run2.Counter(CounterHomes).Add(1)
	srv2 := httptest.NewServer(run2.Handler())
	defer srv2.Close()
	resp, err = srv2.Client().Get(srv2.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	vars.Powifi = nil
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	if vars.Powifi == nil || vars.Powifi.Counters[CounterHomes] != 1 {
		t.Fatalf("expvar did not switch to the newest run: %+v", vars.Powifi)
	}
}

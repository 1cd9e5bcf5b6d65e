// Acceptance suite for the tracing layer's contracts: tracing is
// strictly out of band (the Report's simulation sections are
// byte-identical with it on or off), the summary's deterministic half
// is workers-invariant (bit-for-bit identical at any WithWorkers
// value), the Chrome export is valid trace-event JSON carrying the
// span tree and flight-recorder forensics, and quarantined homes ship
// their dumps on the structured error.
package powifi_test

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	powifi "repro"
)

// traceFleetOpts is a fleet sized to exercise the instrumented layers:
// the coarse tier at its certified window for fits/guard-queries/
// escalations (sensors placed out to 18 ft, past the default 15, so
// some homes sit near the boot threshold and escalate), a fault for
// the failure path, and a skip policy so the run completes.
func traceFleetOpts(workers int) []powifi.Option {
	pop := powifi.DefaultFleetPopulation()
	pop.MaxSensorFt = 18
	return []powifi.Option{
		powifi.WithPopulation(pop),
		powifi.WithHomes(24),
		powifi.WithSeed(11),
		powifi.WithWorkers(workers),
		powifi.WithHorizon(6 * time.Hour),
		powifi.WithBinWidth(30 * time.Minute),
		powifi.WithWindow(10 * time.Millisecond),
		powifi.WithCoarse(true),
		powifi.WithFaults("home.panic@5"),
		powifi.WithFailurePolicy(powifi.FailurePolicy{Skip: true}),
	}
}

func runTraceFleet(t *testing.T, workers int) (*powifi.Report, *powifi.Trace) {
	t.Helper()
	tr := powifi.NewTrace()
	sc, err := powifi.NewScenario(append(traceFleetOpts(workers), powifi.WithTrace(tr))...)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rep, tr
}

func TestTraceIsOutOfBand(t *testing.T) {
	bare, err := powifi.NewScenario(traceFleetOpts(2)...)
	if err != nil {
		t.Fatal(err)
	}
	repOff, err := bare.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	repOn, _ := runTraceFleet(t, 2)

	if repOff.Trace != nil {
		t.Fatal("trace section present without WithTrace")
	}
	if repOn.Trace == nil {
		t.Fatal("trace section missing with WithTrace")
	}
	// The untraced run carries no flight-recorder dump on its errors;
	// the traced run's dump is additive there too. Strip both additive
	// pieces and require the serialized reports byte-identical.
	repOn.Trace = nil
	for i := range repOn.Fleet.Errors {
		repOn.Fleet.Errors[i].Trace = nil
	}
	var on, off bytes.Buffer
	if err := repOn.WriteJSON(&on); err != nil {
		t.Fatal(err)
	}
	if err := repOff.WriteJSON(&off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(on.Bytes(), off.Bytes()) {
		t.Errorf("enabling tracing changed the simulation output:\n--- off ---\n%s\n--- on ---\n%s", &off, &on)
	}
}

func TestTraceWorkerInvariance(t *testing.T) {
	rep1, _ := runTraceFleet(t, 1)
	rep8, _ := runTraceFleet(t, 8)

	s1, s8 := *rep1.Trace, *rep8.Trace
	if s1.Sched == nil || s8.Sched == nil {
		t.Fatal("trace summaries missing their sched sections")
	}
	// Everything outside Sched — event totals, escalation reasons,
	// retained rings — must be bit-for-bit identical across worker
	// counts; Sched is the quarantine for what may differ.
	s1.Sched, s8.Sched = nil, nil
	if !reflect.DeepEqual(s1, s8) {
		j1, _ := json.MarshalIndent(s1, "", "  ")
		j8, _ := json.MarshalIndent(s8, "", "  ")
		t.Errorf("deterministic trace summary diverges across worker counts:\nworkers=1: %s\nworkers=8: %s", j1, j8)
	}
	if s1.HomesTraced != 24 {
		t.Errorf("HomesTraced = %d, want 24", s1.HomesTraced)
	}
	if s1.Events == 0 {
		t.Error("traced run recorded no events")
	}
	if len(s1.Retained) == 0 {
		t.Error("no retained homes despite an injected failure")
	}
	if s1.EscalatedBins == 0 {
		t.Error("coarse run recorded no escalations")
	}
	kinds := map[string]bool{}
	for _, h := range s1.Retained {
		for _, e := range h.Ring {
			kinds[e.Kind] = true
		}
	}
	for _, want := range []string{"guard-query", "escalate"} {
		if !kinds[want] {
			t.Errorf("no retained ring holds a %q event (kinds %v)", want, kinds)
		}
	}
}

func TestTraceChromeExportAndErrorDumps(t *testing.T) {
	var chrome bytes.Buffer
	sc, err := powifi.NewScenario(append(traceFleetOpts(2), powifi.WithTraceOutput(&chrome))...)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// WithTraceOutput implies tracing: the summary rides the report even
	// without an explicit WithTrace recorder.
	if rep.Trace == nil {
		t.Fatal("trace section missing with WithTraceOutput")
	}

	var tr struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &tr); err != nil {
		t.Fatalf("trace output is not valid Chrome trace-event JSON: %v", err)
	}
	count := map[string]int{}
	for _, e := range tr.TraceEvents {
		count[e.Ph+":"+e.Name]++
	}
	for _, want := range []string{"X:run", "X:simulate", "X:home", "i:flight_recorder"} {
		if count[want] == 0 {
			t.Errorf("trace output missing %q events (have %v)", want, count)
		}
	}

	// The quarantined home carries its flight-recorder dump, ending in
	// the fault and quarantine events that explain it.
	if len(rep.Fleet.Errors) == 0 {
		t.Fatal("no quarantined homes despite home.panic fault")
	}
	he := rep.Fleet.Errors[0]
	if he.Trace == nil {
		t.Fatalf("quarantined home %d has no trace dump", he.Index)
	}
	if !strings.HasPrefix(he.Trace.Label, "fleet/home/") {
		t.Errorf("dump label = %q", he.Trace.Label)
	}
	var sawFault, sawQuarantine bool
	for _, e := range he.Trace.Events {
		switch e.Kind {
		case "fault":
			sawFault = e.Detail == "home.panic"
		case "quarantine":
			sawQuarantine = true
		}
	}
	if !sawFault || !sawQuarantine {
		t.Errorf("dump events lack fault/quarantine forensics: %+v", he.Trace.Events)
	}
}

// TestTraceSlowHomes pins the slow-home diagnostics: an injected
// home.slow stall dominates that home's wall time, so it must top both
// the telemetry slow-homes table and the trace's scheduling section,
// under its label and attributed to the "stall" span.
func TestTraceSlowHomes(t *testing.T) {
	tel := powifi.NewTelemetry()
	tr := powifi.NewTrace()
	sc, err := powifi.NewScenario(
		powifi.WithHomes(6),
		powifi.WithSeed(11),
		powifi.WithWorkers(2),
		powifi.WithHorizon(2*time.Hour),
		powifi.WithBinWidth(30*time.Minute),
		powifi.WithWindow(2*time.Millisecond),
		powifi.WithFaults("home.slow@3,delay=30ms"),
		powifi.WithTelemetry(tel),
		powifi.WithTrace(tr),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	snap := tel.Snapshot()
	if len(snap.SlowHomes) == 0 {
		t.Fatal("telemetry snapshot has no slow homes")
	}
	if top := snap.SlowHomes[0]; top.Index != 3 || top.Label != "fleet/home/3" || top.DominantSpan != "stall" {
		t.Errorf("telemetry slowest home = %+v, want fleet/home/3 dominated by stall", top)
	}
	if h := snap.Histograms["home_wall_ms"]; h.N != 6 {
		t.Errorf("home_wall_ms histogram N = %d, want 6", h.N)
	}

	sched := tr.Summary().Sched
	if sched == nil || len(sched.SlowestHomes) == 0 {
		t.Fatal("trace sched section has no slowest homes")
	}
	if top := sched.SlowestHomes[0]; top.Index != 3 || top.Label != "fleet/home/3" || top.DominantSpan != "stall" {
		t.Errorf("trace slowest home = %+v, want fleet/home/3 dominated by stall", top)
	}
}

func TestTraceRejectedOutsideFleetMode(t *testing.T) {
	home := powifi.HomeConfig{ID: 1, Users: 2, Devices: 4, NeighborAPs: 5, Seed: 3}
	if _, err := powifi.NewScenario(powifi.WithHome(home), powifi.WithTrace(powifi.NewTrace())); err == nil ||
		!strings.Contains(err.Error(), "only to fleet") {
		t.Errorf("WithTrace on a home scenario: err = %v, want fleet-only rejection", err)
	}
	if _, err := powifi.NewScenario(powifi.WithExperiment("fig9"), powifi.WithTrace(powifi.NewTrace())); err == nil {
		t.Error("WithTrace on an experiment scenario did not error")
	}
	if _, err := powifi.NewScenario(powifi.WithHomes(2), powifi.WithTrace(nil)); err == nil ||
		!strings.Contains(err.Error(), "nil Trace") {
		t.Errorf("WithTrace(nil): err = %v, want nil-recorder rejection", err)
	}
}

// Acceptance suite for the telemetry layer's three contracts: metrics
// are workers-invariant (bit-for-bit identical totals at any
// WithWorkers value), strictly out of band (the simulation sections of
// a Report are byte-identical with telemetry on or off), and
// consistently exported (the Report JSON section, the Prometheus text
// writer and the expvar endpoint describe the same snapshot).
package powifi_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	powifi "repro"
)

// telemetryFleetOpts is a tiny but non-trivial fleet: enough homes for
// every worker in the 8-way run to see several, with the lifecycle
// engine on so all four instrumented packages count something.
func telemetryFleetOpts(workers int) []powifi.Option {
	mix, _ := powifi.ParseDeviceMix("temp=0.5,camera=0.5")
	return []powifi.Option{
		powifi.WithHomes(24),
		powifi.WithSeed(11),
		powifi.WithWorkers(workers),
		powifi.WithHorizon(2 * time.Hour),
		powifi.WithBinWidth(30 * time.Minute),
		powifi.WithWindow(2 * time.Millisecond),
		powifi.WithDevices(mix),
	}
}

func runTelemetryFleet(t *testing.T, workers int, extra ...powifi.Option) (*powifi.Report, *powifi.Telemetry) {
	t.Helper()
	tel := powifi.NewTelemetry()
	opts := append(telemetryFleetOpts(workers), powifi.WithTelemetry(tel))
	sc, err := powifi.NewScenario(append(opts, extra...)...)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rep, tel
}

func TestTelemetryWorkerInvariance(t *testing.T) {
	rep1, _ := runTelemetryFleet(t, 1)
	rep8, _ := runTelemetryFleet(t, 8)

	s1, s8 := rep1.Telemetry, rep8.Telemetry
	if s1 == nil || s8 == nil {
		t.Fatal("telemetry section missing from report")
	}
	if !reflect.DeepEqual(s1.Counters, s8.Counters) {
		t.Errorf("work counters diverge across worker counts:\nworkers=1: %v\nworkers=8: %v",
			s1.Counters, s8.Counters)
	}
	h1, h8 := s1.Histograms["home_harvest_uw"], s8.Histograms["home_harvest_uw"]
	if !reflect.DeepEqual(h1, h8) {
		t.Errorf("home_harvest_uw diverges across worker counts:\nworkers=1: %+v\nworkers=8: %+v", h1, h8)
	}
	if n := s1.Counters["homes"]; n != 24 {
		t.Errorf("homes counter = %d, want 24", n)
	}
	if s1.Counters["bins"] == 0 || s1.Counters["surface_hits"] == 0 ||
		s1.Counters["lifecycle_boots"] == 0 || s1.Counters["lifecycle_ledger_events"] == 0 {
		t.Errorf("instrumented packages left counters at zero: %v", s1.Counters)
	}
	if s1.Manifest.ConfigHash == "" || s1.Manifest.ConfigHash != s8.Manifest.ConfigHash {
		t.Errorf("config hash must exist and ignore the worker count: %q vs %q",
			s1.Manifest.ConfigHash, s8.Manifest.ConfigHash)
	}
	if s1.Manifest.Seed != 11 || s8.Manifest.Workers != 8 {
		t.Errorf("manifests: %+v / %+v", s1.Manifest, s8.Manifest)
	}
	// Tracing shares the per-home handle telemetry folds from; turning
	// it on must not move a single work counter or histogram bucket.
	for _, workers := range []int{1, 8} {
		traced, _ := runTelemetryFleet(t, workers, powifi.WithTrace(powifi.NewTrace()))
		st := traced.Telemetry
		if !reflect.DeepEqual(s1.Counters, st.Counters) {
			t.Errorf("work counters diverge with tracing on (workers=%d):\noff: %v\non:  %v",
				workers, s1.Counters, st.Counters)
		}
		if ht := st.Histograms["home_harvest_uw"]; !reflect.DeepEqual(h1, ht) {
			t.Errorf("home_harvest_uw diverges with tracing on (workers=%d):\noff: %+v\non:  %+v", workers, h1, ht)
		}
	}
}

// TestTelemetryViewsTrace pins telemetry's scheduling view over the
// trace recorder: with both on, telemetry's slowest homes, home wall
// quantiles and phase spans are the trace's — less the trace-only root
// run span — at any worker count.
func TestTelemetryViewsTrace(t *testing.T) {
	for _, workers := range []int{1, 8} {
		rep, _ := runTelemetryFleet(t, workers, powifi.WithTrace(powifi.NewTrace()))
		snap, sched := rep.Telemetry, rep.Trace.Sched
		if len(snap.SlowHomes) == 0 || !reflect.DeepEqual(snap.SlowHomes, sched.SlowestHomes) {
			t.Errorf("workers=%d: slow_homes = %+v, want sched.slowest_homes %+v",
				workers, snap.SlowHomes, sched.SlowestHomes)
		}
		h := snap.Histograms["home_wall_ms"]
		if got := sched.HomeWallMS; h.N != got.N || h.P50 != got.P50 || h.P99 != got.P99 ||
			h.Max != got.Max || h.N != 24 {
			t.Errorf("workers=%d: home_wall_ms = %+v, want sched.home_wall_ms %+v over 24 homes",
				workers, h, got)
		}
		var telSpans, traceSpans []string
		for _, sp := range snap.Spans {
			telSpans = append(telSpans, sp.Name)
		}
		sawRun := false
		for _, sp := range sched.Spans {
			switch {
			case sp.TID != 0:
			case sp.Name == "run":
				sawRun = true
			default:
				traceSpans = append(traceSpans, sp.Name)
			}
		}
		if !sawRun || len(telSpans) == 0 || !reflect.DeepEqual(telSpans, traceSpans) {
			t.Errorf("workers=%d: telemetry spans = %v, want the trace's phase spans %v less run (run seen: %v)",
				workers, telSpans, traceSpans, sawRun)
		}
	}
}

func TestTelemetryIsOutOfBand(t *testing.T) {
	bare, err := powifi.NewScenario(telemetryFleetOpts(2)...)
	if err != nil {
		t.Fatal(err)
	}
	repOff, err := bare.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	repOn, _ := runTelemetryFleet(t, 2)

	if repOff.Telemetry != nil {
		t.Fatal("telemetry section present without WithTelemetry")
	}
	// The simulation sections must be byte-identical: strip the additive
	// telemetry section and compare the serialized reports.
	repOn.Telemetry = nil
	var on, off bytes.Buffer
	if err := repOn.WriteJSON(&on); err != nil {
		t.Fatal(err)
	}
	if err := repOff.WriteJSON(&off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(on.Bytes(), off.Bytes()) {
		t.Errorf("enabling telemetry changed the simulation output:\n--- off ---\n%s\n--- on ---\n%s", &off, &on)
	}
}

func TestTelemetryExportsAgree(t *testing.T) {
	rep, tel := runTelemetryFleet(t, 2)
	snap := rep.Telemetry

	// Prometheus text export: every work counter appears as
	// powifi_<name>_total with the snapshot's value.
	var prom bytes.Buffer
	if err := tel.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	values := map[string]string{}
	for _, line := range strings.Split(prom.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if name, val, ok := strings.Cut(line, " "); ok {
			values[name] = val
		}
	}
	for name, want := range snap.Counters {
		got := values["powifi_"+name+"_total"]
		if got != strconv.FormatUint(want, 10) {
			t.Errorf("prometheus powifi_%s_total = %q, want %d", name, got, want)
		}
	}
	if got := values["powifi_run_info{seed=\"11\",config_hash=\""+snap.Manifest.ConfigHash+"\",go_version=\""+snap.Manifest.GoVersion+"\",workers=\"2\"}"]; got != "1" {
		t.Errorf("prometheus run_info line missing or wrong:\n%s", prom.String())
	}

	// expvar endpoint: the "powifi" var decodes back into the same
	// snapshot the report carries.
	srv := httptest.NewServer(powifi.MetricsHandler(tel))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars struct {
		Powifi *powifi.TelemetrySnapshot `json:"powifi"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	if vars.Powifi == nil {
		t.Fatal("expvar endpoint carries no powifi snapshot")
	}
	if !reflect.DeepEqual(vars.Powifi.Counters, snap.Counters) {
		t.Errorf("expvar counters = %v, report counters = %v", vars.Powifi.Counters, snap.Counters)
	}
	if !reflect.DeepEqual(vars.Powifi.Histograms, snap.Histograms) {
		t.Errorf("expvar histograms = %v, report histograms = %v", vars.Powifi.Histograms, snap.Histograms)
	}
	if vars.Powifi.Manifest != snap.Manifest {
		t.Errorf("expvar manifest = %+v, report manifest = %+v", vars.Powifi.Manifest, snap.Manifest)
	}

	// /metrics over HTTP matches the direct writer.
	resp, err = srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Equal(body, prom.Bytes()) {
		t.Errorf("/metrics body differs from WritePrometheus output")
	}
}

func TestMetricsSinkImpliesTelemetry(t *testing.T) {
	var sink bytes.Buffer
	sc, err := powifi.NewScenario(append(telemetryFleetOpts(2), powifi.WithMetricsSink(&sink))...)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Telemetry == nil {
		t.Fatal("WithMetricsSink must imply a telemetry section")
	}
	if !strings.Contains(sink.String(), "powifi_homes_total 24") {
		t.Errorf("metrics sink output:\n%s", sink.String())
	}
}

func TestTelemetryRejectedOutsideFleetMode(t *testing.T) {
	tel := powifi.NewTelemetry()
	if _, err := powifi.NewScenario(powifi.WithHome(powifi.PaperHomes()[0]), powifi.WithTelemetry(tel)); err == nil {
		t.Error("home-mode scenario accepted WithTelemetry")
	}
	if _, err := powifi.NewScenario(powifi.WithExperiment("fig9"), powifi.WithTelemetry(tel)); err == nil {
		t.Error("experiment scenario accepted WithTelemetry")
	}
	if _, err := powifi.NewScenario(powifi.WithHome(powifi.PaperHomes()[0]), powifi.WithMetricsSink(io.Discard)); err == nil {
		t.Error("home-mode scenario accepted WithMetricsSink")
	}
}

func TestScenarioWithDerivesWithoutMutating(t *testing.T) {
	sc, err := powifi.NewScenario(telemetryFleetOpts(2)...)
	if err != nil {
		t.Fatal(err)
	}
	tel := powifi.NewTelemetry()
	sc2, err := sc.With(powifi.WithTelemetry(tel))
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := sc2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Telemetry == nil {
		t.Error("derived scenario did not collect telemetry")
	}
	rep, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Telemetry != nil {
		t.Error("With mutated the receiver scenario")
	}
	// Derived options still validate as a whole.
	home, err := powifi.NewScenario(powifi.WithHome(powifi.PaperHomes()[0]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := home.With(powifi.WithTelemetry(tel)); err == nil {
		t.Error("With accepted a telemetry option on a home scenario")
	}
}

// TestServeMetricsDrainsInflightScrape pins the graceful-teardown
// contract of ServeMetrics: a /metrics scrape that is already being
// served when shutdown begins receives its complete response, while
// shutdown itself refuses new connections. The handler blocks on a
// channel so the test controls exactly when the in-flight request is
// mid-response — no timing sleeps.
func TestServeMetricsDrainsInflightScrape(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	release := make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(started)
		<-release
		io.WriteString(w, "scrape-body")
	})
	shutdown := powifi.ServeMetrics(ln, h)

	type scrape struct {
		body string
		err  error
	}
	got := make(chan scrape, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/metrics")
		if err != nil {
			got <- scrape{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		got <- scrape{body: string(b), err: err}
	}()

	<-started // the scrape is in flight, handler mid-request
	done := make(chan struct{})
	go func() { shutdown(); close(done) }()

	select {
	case <-done:
		t.Fatal("shutdown returned while a scrape was still in flight")
	case <-time.After(20 * time.Millisecond):
	}

	close(release) // let the handler finish its response
	s := <-got
	if s.err != nil {
		t.Fatalf("in-flight scrape must complete across shutdown: %v", s.err)
	}
	if s.body != "scrape-body" {
		t.Fatalf("in-flight scrape body = %q, want %q", s.body, "scrape-body")
	}
	<-done // shutdown returns once the scrape drained

	// The listener is closed: new scrapes are refused.
	if _, err := http.Get("http://" + ln.Addr().String() + "/metrics"); err == nil {
		t.Fatal("scrape after shutdown should fail")
	}
}

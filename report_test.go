package powifi_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"runtime"
	"testing"

	powifi "repro"
	"repro/internal/trace"
)

// encoderJSON is the reference form of Report.WriteJSON: the whole
// report through one json.Encoder with two-space indentation.
func encoderJSON(t *testing.T, rep *powifi.Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func runReport(t *testing.T, sc *powifi.Scenario) *powifi.Report {
	t.Helper()
	rep, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// spanRecords returns n home spans shaped like a sweep's, led by a run
// and a phase span.
func spanRecords(n int) []trace.SpanRecord {
	spans := []trace.SpanRecord{
		{Name: "simulate", Home: -1, DurUS: 812345.5, CPUS: 0.81},
		{Name: "run", Home: -1, DurUS: 912345.25, CPUS: 0.9},
	}
	for i := len(spans); i < n; i++ {
		spans = append(spans, trace.SpanRecord{
			Name: "home", TID: 1 + i%2, Home: i, StartUS: float64(i) * 61.5, DurUS: 57.125,
		})
	}
	return spans
}

// TestReportJSONMatchesEncoder pins Report.WriteJSON, which streams the
// report section by section and the trace spans record by record, to
// the bytes one json.Encoder writes for every report shape.
func TestReportJSONMatchesEncoder(t *testing.T) {
	mix, err := powifi.ParseDeviceMix("temp=0.5,camera=0.3,jawbone=0.2")
	if err != nil {
		t.Fatal(err)
	}
	traced := runReport(t, mustScenario(t, append(traceFleetOpts(2),
		powifi.WithTelemetry(powifi.NewTelemetry()), powifi.WithTrace(powifi.NewTrace()))...))
	if traced.Trace.EscalationReasons == nil || len(traced.Trace.Retained) == 0 ||
		len(traced.Fleet.Errors) == 0 || traced.Fleet.Errors[0].Trace == nil {
		t.Fatal("traced fixture lacks escalation reasons, retained rings or an error dump")
	}
	bare := runReport(t, tinyFleet(t))
	dropped := *bare
	dropped.Trace = &powifi.TraceSummary{
		HomesTraced: 3,
		Events:      17,
		Sched: &powifi.TraceSchedSummary{
			Spans:        append(spanRecords(3), trace.SpanRecord{Name: "<home & co>", TID: 2, Home: 4}),
			SpansDropped: 5,
		},
	}
	emptySched := *bare
	emptySched.Trace = &powifi.TraceSummary{HomesTraced: 3, Sched: &powifi.TraceSchedSummary{}}
	zeroHomes := *bare
	zeroHomes.Fleet = &powifi.FleetSummary{}
	zeroHomes.Trace = &powifi.TraceSummary{}

	cases := map[string]*powifi.Report{
		"fleet":                bare,
		"fleet telemetry":      runReport(t, tinyFleet(t, powifi.WithTelemetry(powifi.NewTelemetry()))),
		"fleet traced":         traced,
		"trace spans dropped":  &dropped,
		"trace empty sched":    &emptySched,
		"trace zero homes":     &zeroHomes,
		"home devices":         runReport(t, tinyHome(t, powifi.WithDevices(mix))),
		"experiment":           runReport(t, mustScenario(t, powifi.WithExperiment("fig9"))),
		"experiment escapes":   {Schema: 1, Version: "v<&>", Mode: powifi.ModeExperiment, Experiment: &powifi.ExperimentReport{ID: "fig9", Output: "a <b> & \"c\"\n"}},
		"no section (invalid)": {Mode: "none"},
	}
	for name, rep := range cases {
		t.Run(name, func(t *testing.T) {
			var got bytes.Buffer
			if err := rep.WriteJSON(&got); err != nil {
				t.Fatal(err)
			}
			if want := encoderJSON(t, rep); !bytes.Equal(got.Bytes(), want) {
				t.Errorf("WriteJSON differs from the encoder:\n--- encoder ---\n%s\n--- WriteJSON ---\n%s", want, got.Bytes())
			}
		})
	}
}

// raceEnabled is set in race builds (race_test.go).
var raceEnabled bool

// TestReportWriteJSONStreams pins the streaming: writing a report whose
// trace holds a sweep's worth of spans allocates a small fraction of
// the encoded document, where encoding it whole allocates a multiple.
func TestReportWriteJSONStreams(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budget does not hold under the race detector")
	}
	rep := *runReport(t, tinyFleet(t))
	rep.Trace = &powifi.TraceSummary{
		HomesTraced: 16_001,
		Sched:       &powifi.TraceSchedSummary{Spans: spanRecords(16_003)},
	}
	size := uint64(len(encoderJSON(t, &rep)))
	alloc := ^uint64(0)
	for range 3 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if err := rep.WriteJSON(io.Discard); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		alloc = min(alloc, m1.TotalAlloc-m0.TotalAlloc)
	}
	t.Logf("%d-byte report, %d bytes allocated to write it", size, alloc)
	if alloc > size/4 {
		t.Errorf("writing a %d-byte report allocated %d bytes, over a quarter of its size", size, alloc)
	}
}

func mustScenario(t *testing.T, opts ...powifi.Option) *powifi.Scenario {
	t.Helper()
	sc, err := powifi.NewScenario(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

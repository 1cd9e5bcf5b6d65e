package powifi

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/fleet"
	"repro/internal/lifecycle"
	"repro/internal/phy"
)

// ReportSchema identifies the Report JSON schema version. It is
// emitted in every report ("schema": 1) so downstream consumers can
// detect format changes; it bumps only when a serialized field is
// removed or its meaning changes, never for additive growth.
const ReportSchema = 1

// Report is the unified result of Scenario.Run: one exported,
// versioned type that every run mode reduces into. Exactly one of the
// mode sections (Fleet, Home, Experiment) is non-nil, named by Mode.
// The JSON schema is stable — see ReportSchema — and renders through
// WriteJSON; WriteText and WriteCSV provide the human-readable and
// tabular forms.
type Report struct {
	// Schema is the report schema version (ReportSchema).
	Schema int `json:"schema"`
	// Version is the powifi build that produced the report.
	Version string `json:"version"`
	// Mode names the populated section: ModeFleet, ModeHome or
	// ModeExperiment.
	Mode string `json:"mode"`
	// Fleet holds the fleet-scale population aggregates, including the
	// per-archetype device-lifecycle sections when the population
	// carries a device mix.
	Fleet *FleetSummary `json:"fleet,omitempty"`
	// Home holds the single-home deployment summary.
	Home *HomeReport `json:"home,omitempty"`
	// Experiment holds a regenerated paper table or figure.
	Experiment *ExperimentReport `json:"experiment,omitempty"`
	// Telemetry holds the run's metrics snapshot and manifest when the
	// scenario carried WithTelemetry or WithMetricsSink (fleet mode
	// only). Purely additive and out of band: the simulation sections
	// are byte-identical with or without it.
	Telemetry *TelemetrySnapshot `json:"telemetry,omitempty"`
	// Trace holds the run's trace summary when the scenario carried
	// WithTrace or WithTraceOutput (fleet mode only). Additive and out
	// of band like Telemetry; everything outside its Sched section is
	// bit-for-bit identical at any WithWorkers value.
	Trace *TraceSummary `json:"trace,omitempty"`
}

// FleetSummary is the serialized fleet report; see fleet.Summary for
// field semantics. Two runs of the same scenario serialize identically
// at any worker count.
type FleetSummary = fleet.Summary

// DeviceSection is one lifecycle device's serialized report section.
type DeviceSection = lifecycle.Section

// HomeReport is the single-home mode section: the §6 deployment
// runner's summary for one household, plus one DeviceSection per
// lifecycle device when the scenario carries a device mix.
type HomeReport struct {
	// Home echoes the configured household; SensorFt, Hours, BinWidthS
	// and WindowS echo the resolved placement and timings (Hours is
	// snapped to whole logging bins).
	Home      HomeConfig `json:"home"`
	SensorFt  float64    `json:"sensor_ft"`
	Hours     float64    `json:"hours"`
	BinWidthS float64    `json:"bin_width_s"`
	WindowS   float64    `json:"window_s"`
	Exact     bool       `json:"exact,omitempty"`

	// Bins counts the logging bins simulated; SilentBins those in which
	// the battery-free sensor could not operate.
	Bins       int `json:"bins"`
	SilentBins int `json:"silent_bins"`

	// MeanCumulativePct is the mean cumulative occupancy percentage
	// (the paper reports 78-127% across its six homes); the per-channel
	// map is keyed ch1/ch6/ch11.
	MeanCumulativePct   float64            `json:"mean_cumulative_pct"`
	ChannelOccupancyPct map[string]float64 `json:"channel_occupancy_pct"`
	// MeanHarvestUW is the mean harvested power, µW (silent bins
	// contribute zero); MeanUpdateRateHz the mean sensor update rate.
	MeanHarvestUW    float64 `json:"mean_harvest_uw"`
	MeanUpdateRateHz float64 `json:"mean_update_rate_hz"`

	// Devices holds one section per lifecycle device, in canonical
	// archetype order; empty without WithDevices.
	Devices []DeviceSection `json:"devices,omitempty"`
}

// ExperimentReport is the experiment mode section: one paper table or
// figure regenerated from the simulator.
type ExperimentReport struct {
	// ID is the experiment id (see Experiments).
	ID string `json:"id"`
	// Full marks the paper-scale configuration (WithFull); false is the
	// quick reduced configuration.
	Full bool `json:"full,omitempty"`
	// Output is the experiment runner's rendered table.
	Output string `json:"output"`
}

// newReport stamps the schema envelope onto a mode section.
func newReport(mode string, r *Report) *Report {
	r.Schema = ReportSchema
	r.Version = Version
	r.Mode = mode
	return r
}

// WriteJSON writes the report as indented JSON under the versioned
// schema: the bytes json.Encoder with SetIndent("", "  ") writes for
// the whole report. It streams, encoding one section at a time and the
// trace section's span list one record at a time, so writing a report
// costs the memory of its largest section, not of the document. On
// error, a prefix of the document may already have been written.
func (r *Report) WriteJSON(w io.Writer) error {
	jw := newJSONWriter(w)
	jw.raw("{")
	jw.member("schema", r.Schema)
	jw.member("version", r.Version)
	jw.member("mode", r.Mode)
	if r.Fleet != nil {
		jw.member("fleet", r.Fleet)
	}
	if r.Home != nil {
		jw.member("home", r.Home)
	}
	if r.Experiment != nil {
		jw.member("experiment", r.Experiment)
	}
	if r.Telemetry != nil {
		jw.member("telemetry", r.Telemetry)
	}
	if r.Trace != nil {
		jw.key("trace")
		jw.trace(r.Trace)
	}
	jw.raw("\n}\n")
	return jw.flush()
}

// jsonWriter writes one indented JSON document piece by piece. Every
// piece goes through one encoder into one reused buffer, so a piece
// costs its own encoded size and allocates nothing once the buffer has
// grown to the largest piece.
type jsonWriter struct {
	w       *bufio.Writer
	buf     bytes.Buffer
	enc     *json.Encoder
	members int // top-level members written
	err     error
}

func newJSONWriter(w io.Writer) *jsonWriter {
	jw := &jsonWriter{w: bufio.NewWriter(w)}
	jw.enc = json.NewEncoder(&jw.buf)
	return jw
}

func (jw *jsonWriter) raw(s string) {
	if jw.err == nil {
		_, jw.err = jw.w.WriteString(s)
	}
}

// encode returns v indented as a value nested under prefix — what
// json.MarshalIndent(v, prefix, "  ") returns. The bytes are valid
// until the next call; nil after an error.
func (jw *jsonWriter) encode(prefix string, v any) []byte {
	if jw.err != nil {
		return nil
	}
	jw.buf.Reset()
	jw.enc.SetIndent(prefix, "  ")
	if jw.err = jw.enc.Encode(v); jw.err != nil {
		return nil
	}
	return bytes.TrimSuffix(jw.buf.Bytes(), []byte("\n"))
}

func (jw *jsonWriter) write(b []byte) {
	if jw.err == nil {
		_, jw.err = jw.w.Write(b)
	}
}

// key starts the next top-level member.
func (jw *jsonWriter) key(k string) {
	if jw.members > 0 {
		jw.raw(",")
	}
	jw.members++
	jw.raw("\n  \"" + k + "\": ")
}

// member writes one top-level member whole.
func (jw *jsonWriter) member(k string, v any) {
	jw.key(k)
	jw.write(jw.encode("  ", v))
}

// trace writes the trace section, its sched.spans one record at a
// time. Sched is the summary's last member and Spans the sched
// section's first (TestReportJSONMatchesEncoder pins both), so the
// section is the summary without Sched up to its closing brace, the
// span list, then the sched section without Spans after its opening
// brace.
func (jw *jsonWriter) trace(t *TraceSummary) {
	if t.Sched == nil || len(t.Sched.Spans) == 0 {
		jw.write(jw.encode("  ", t))
		return
	}
	head, sched := *t, *t.Sched
	head.Sched, sched.Spans = nil, nil
	jw.write(bytes.TrimSuffix(jw.encode("  ", &head), []byte("\n  }")))
	jw.raw(`,
    "sched": {
      "spans": [`)
	for i := range t.Sched.Spans {
		if i > 0 {
			jw.raw(",")
		}
		jw.raw("\n        ")
		jw.write(jw.encode("        ", &t.Sched.Spans[i]))
	}
	jw.raw("\n      ],")
	if b := jw.encode("    ", &sched); b != nil {
		jw.write(b[1:])
	}
	jw.raw("\n  }")
}

func (jw *jsonWriter) flush() error {
	if jw.err != nil {
		return jw.err
	}
	return jw.w.Flush()
}

// WriteText writes the report's human-readable form: the fleet
// summary, the single-home summary, or the experiment's table.
func (r *Report) WriteText(w io.Writer) error {
	switch {
	case r.Fleet != nil:
		return r.Fleet.WriteText(w)
	case r.Home != nil:
		return r.Home.writeText(w)
	case r.Experiment != nil:
		_, err := io.WriteString(w, r.Experiment.Output)
		return err
	}
	return fmt.Errorf("powifi: report (mode %q) has no section to render", r.Mode)
}

// WriteCSV writes the report's tabular form. Only fleet reports carry
// a CSV serialization.
func (r *Report) WriteCSV(w io.Writer) error {
	if r.Fleet == nil {
		return fmt.Errorf("powifi: csv output requires a fleet report (mode %q)", r.Mode)
	}
	return r.Fleet.WriteCSV(w)
}

// writeText renders the single-home summary.
func (h *HomeReport) writeText(w io.Writer) error {
	var werr error
	p := func(format string, args ...any) {
		if werr == nil {
			_, werr = fmt.Fprintf(w, format+"\n", args...)
		}
	}
	p("home %d: %d users, %d devices, %d neighboring APs (seed %d)",
		h.Home.ID, h.Home.Users, h.Home.Devices, h.Home.NeighborAPs, h.Home.Seed)
	p("deployment: %.2g h x %.0f s bins (window %.0f ms), sensor at %.1f ft",
		h.Hours, h.BinWidthS, h.WindowS*1000, h.SensorFt)
	p("")
	p("mean cumulative occupancy: %.1f%% over %d bins", h.MeanCumulativePct, h.Bins)
	for _, ch := range phy.PoWiFiChannels {
		p("  %-5s mean %.1f%%", ch, h.ChannelOccupancyPct[ch.String()])
	}
	p("harvested power: mean %.2f µW (silent bins: %d/%d)", h.MeanHarvestUW, h.SilentBins, h.Bins)
	p("sensor update rate: mean %.2f Hz", h.MeanUpdateRateHz)
	for _, d := range h.Devices {
		line := fmt.Sprintf("device %-8s state %-8s outage %.1f%%", d.Kind, d.State, d.OutagePct)
		if d.Updates > 0 {
			line += fmt.Sprintf("  %.0f updates", d.Updates)
		}
		if d.Frames > 0 {
			line += fmt.Sprintf("  %d frames", d.Frames)
		}
		if d.FinalSoCPct != nil {
			line += fmt.Sprintf("  soc %.2f%%", *d.FinalSoCPct)
		}
		if d.TimeToFullS != nil {
			line += fmt.Sprintf("  full in %.2f h", *d.TimeToFullS/3600)
		}
		p("%s", line)
	}
	return werr
}

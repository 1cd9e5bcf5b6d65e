package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	powifi "repro"
)

// tinyArgs is a fleet small enough for CLI tests: 3 homes × 4 bins.
func tinyArgs(extra ...string) []string {
	base := []string{"-homes", "3", "-seed", "9", "-duration", "2h", "-bin", "30m",
		"-window", "2ms", "-workers", "2", "-q"}
	return append(base, extra...)
}

func runCLI(t *testing.T, args []string) (code int, out, errBuf bytes.Buffer) {
	t.Helper()
	code = run(context.Background(), args, &out, &errBuf)
	return code, out, errBuf
}

func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
		want string // substring expected on stderr
	}{
		{"unknown format", tinyArgs("-format", "xml"), 2, "unknown format"},
		{"unknown flag", []string{"-bogus"}, 2, "flag provided but not defined"},
		{"stray positional", tinyArgs("json"), 2, "unexpected arguments"},
		{"bad homes", []string{"-homes", "0", "-q"}, 1, "Homes"},
		{"bad duration", []string{"-homes", "1", "-duration", "10m", "-bin", "1h", "-q"}, 1, "shorter than one"},
		{"zero window", tinyArgs("-window", "0"), 1, "non-positive window 0s"},
		{"zero bin", tinyArgs("-bin", "0"), 1, "non-positive bin width 0s"},
		{"zero duration", tinyArgs("-duration", "0"), 1, "non-positive horizon 0h"},
		{"zero horizon", tinyArgs("-horizon", "0"), 1, "non-positive horizon 0h"},
		{"bad device mix", tinyArgs("-devices", "toaster=1"), 2, "unknown device archetype"},
		{"malformed device mix", tinyArgs("-devices", "temp"), 2, "not name=weight"},
		{"zero device mix", tinyArgs("-devices", "temp=0"), 2, "no positive share"},
		{"coarse with devices", tinyArgs("-coarse", "-devices", "temp=1"), 1, "device-lifecycle population"},
		{"coarse below certified window", tinyArgs("-coarse"), 1, "below its certified 10ms"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, errBuf := runCLI(t, tc.args)
			if code != tc.code {
				t.Fatalf("exit code %d, want %d (stderr: %s)", code, tc.code, errBuf.String())
			}
			if !strings.Contains(errBuf.String(), tc.want) {
				t.Errorf("stderr %q missing %q", errBuf.String(), tc.want)
			}
		})
	}
}

func TestTextOutput(t *testing.T) {
	code, out, errBuf := runCLI(t, tinyArgs())
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	for _, want := range []string{"fleet: 3 homes x 2 h (seed 9", "cumulative occupancy per home", "occupancy CDF"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("text output missing %q:\n%s", want, out.String())
		}
	}
}

// TestJSONSchemaRoundTrip pins the JSON schema: the CLI emits the
// versioned powifi.Report envelope ("schema": 1) whose fleet section
// must decode into powifi.FleetSummary and survive a
// decode→encode→decode round trip unchanged (no lossy fields, no
// unserializable values).
func TestJSONSchemaRoundTrip(t *testing.T) {
	code, out, errBuf := runCLI(t, tinyArgs("-format", "json"))
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	var rep powifi.Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("CLI JSON does not decode into powifi.Report: %v", err)
	}
	if rep.Schema != powifi.ReportSchema || rep.Version != powifi.Version || rep.Mode != powifi.ModeFleet {
		t.Errorf("report envelope wrong: schema=%d version=%q mode=%q", rep.Schema, rep.Version, rep.Mode)
	}
	if rep.Fleet == nil {
		t.Fatal("report missing the fleet section")
	}
	if rep.Fleet.Homes != 3 || rep.Fleet.Seed != 9 || rep.Fleet.TotalBins != 12 {
		t.Errorf("decoded summary wrong: homes=%d seed=%d bins=%d",
			rep.Fleet.Homes, rep.Fleet.Seed, rep.Fleet.TotalBins)
	}
	re, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var rep2 powifi.Report
	if err := json.Unmarshal(re, &rep2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, rep2) {
		t.Errorf("JSON round trip not stable:\nfirst  %+v\nsecond %+v", rep, rep2)
	}
	// Schema keys the dashboards depend on must be present verbatim.
	var raw map[string]any
	if err := json.Unmarshal(out.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"schema", "version", "mode", "fleet"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("JSON output missing envelope key %q", key)
		}
	}
	fl, ok := raw["fleet"].(map[string]any)
	if !ok {
		t.Fatal("fleet section is not an object")
	}
	for _, key := range []string{"homes", "seed", "total_bins", "silent_fraction",
		"home_occupancy_pct", "channel_occupancy_pct", "home_harvest_uw",
		"bin_occupancy_pct", "bin_harvest_uw", "update_latency_s",
		"mean_update_rate_hz", "home_occupancy_cdf", "bin_harvest_cdf", "bin_latency_cdf"} {
		if _, ok := fl[key]; !ok {
			t.Errorf("fleet JSON missing key %q", key)
		}
	}
}

// TestCSVSchemaRoundTrip pins the CSV schema: parseable by encoding/csv,
// fixed header, known sections, and the dist rows numeric.
func TestCSVSchemaRoundTrip(t *testing.T) {
	code, out, errBuf := runCLI(t, tinyArgs("-format", "csv"))
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	rows, err := csv.NewReader(strings.NewReader(out.String())).ReadAll()
	if err != nil {
		t.Fatalf("CLI CSV does not parse: %v", err)
	}
	wantHeader := []string{"section", "name", "n", "mean", "stddev", "min", "max", "p50", "p95", "p99", "underflow", "overflow"}
	if !reflect.DeepEqual(rows[0], wantHeader) {
		t.Fatalf("CSV header changed: %v", rows[0])
	}
	sections := map[string]int{}
	for _, row := range rows[1:] {
		if len(row) != len(wantHeader) {
			t.Fatalf("ragged CSV row: %v", row)
		}
		sections[row[0]]++
	}
	for _, want := range []string{"dist", "population", "scalar", "cdf"} {
		if sections[want] == 0 {
			t.Errorf("CSV missing section %q (got %v)", want, sections)
		}
	}
}

// TestLifecycleFlags pins the -devices/-horizon surface: the mix
// switches on the lifecycle engine (text section + JSON subtree with a
// stable schema), -horizon overrides -duration, and the JSON round
// trip stays lossless with the new section present.
func TestLifecycleFlags(t *testing.T) {
	args := tinyArgs("-devices", "temp=0.5,camera=0.3,jawbone=0.2", "-horizon", "3h", "-format", "json")
	code, out, errBuf := runCLI(t, args)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	var rep powifi.Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	s := rep.Fleet
	if s == nil {
		t.Fatal("report missing the fleet section")
	}
	if s.Hours != 3 {
		t.Errorf("-horizon 3h resolved to %v hours (should override -duration 2h)", s.Hours)
	}
	if s.Lifecycle == nil || len(s.Lifecycle.Archetypes) == 0 {
		t.Fatal("JSON output missing the lifecycle section")
	}
	if s.Population.Devices.Total() != 1 {
		t.Errorf("population device mix not echoed: %v", s.Population.Devices)
	}
	for _, a := range s.Lifecycle.Archetypes {
		if a.Homes == 0 {
			t.Errorf("archetype %s reported with zero homes", a.Kind)
		}
	}
	re, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var rep2 powifi.Report
	if err := json.Unmarshal(re, &rep2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, rep2) {
		t.Error("lifecycle JSON round trip not stable")
	}

	// Schema keys the dashboards depend on.
	var raw map[string]any
	if err := json.Unmarshal(out.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	fl, ok := raw["fleet"].(map[string]any)
	if !ok {
		t.Fatal("JSON output missing key \"fleet\"")
	}
	lc, ok := fl["lifecycle"].(map[string]any)
	if !ok {
		t.Fatal("JSON output missing key \"lifecycle\"")
	}
	archs, ok := lc["archetypes"].([]any)
	if !ok || len(archs) == 0 {
		t.Fatal("lifecycle.archetypes missing or empty")
	}
	arch := archs[0].(map[string]any)
	for _, key := range []string{"kind", "homes", "total_bins", "outage_bins",
		"time_to_first_update_s", "homes_never_active", "home_outage_pct",
		"updates_per_home_mean", "frames_per_home_mean", "update_interval_s",
		"soc_pct", "final_soc_pct_mean", "min_soc_pct_mean", "charge_time_s", "homes_charged"} {
		if _, ok := arch[key]; !ok {
			t.Errorf("lifecycle archetype JSON missing key %q", key)
		}
	}

	// Text mode grows the lifecycle section; CSV gains lifecycle rows.
	code, out, errBuf = runCLI(t, tinyArgs("-devices", "temp=1"))
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	if !strings.Contains(out.String(), "device lifecycle (temp=1):") {
		t.Errorf("text output missing lifecycle section:\n%s", out.String())
	}
	code, out, errBuf = runCLI(t, tinyArgs("-devices", "temp=1", "-format", "csv"))
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	if !strings.Contains(out.String(), "lifecycle/temp/time_to_first_update_s") {
		t.Error("CSV output missing lifecycle rows")
	}
}

// TestScenarioFlag pins the declarative path: a -scenario file must
// reproduce the equivalent flag run byte for byte in every format, and
// configuration flags alongside -scenario are a hard error rather than
// a silent merge.
func TestScenarioFlag(t *testing.T) {
	scen := `{"schema":1,"homes":3,"seed":9,"workers":2,"horizon":"2h0m0s","bin":"30m0s","window":"2ms"}`
	path := filepath.Join(t.TempDir(), "tiny.json")
	if err := os.WriteFile(path, []byte(scen), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{"text", "json", "csv"} {
		code, fromFlags, errBuf := runCLI(t, tinyArgs("-format", format))
		if code != 0 {
			t.Fatalf("flags (%s): exit %d: %s", format, code, errBuf.String())
		}
		code, fromFile, errBuf := runCLI(t, []string{"-scenario", path, "-format", format, "-q"})
		if code != 0 {
			t.Fatalf("-scenario (%s): exit %d: %s", format, code, errBuf.String())
		}
		if !bytes.Equal(fromFlags.Bytes(), fromFile.Bytes()) {
			t.Errorf("%s output differs between flags and -scenario:\n--- flags ---\n%s--- scenario ---\n%s",
				format, fromFlags.String(), fromFile.String())
		}
	}

	// Conflicting flags: a clear error, exit 2.
	code, _, errBuf := runCLI(t, []string{"-scenario", path, "-homes", "5", "-q"})
	if code != 2 {
		t.Fatalf("-scenario with -homes: exit %d, want 2 (stderr: %s)", code, errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "conflict with -scenario") {
		t.Errorf("stderr %q missing the conflict explanation", errBuf.String())
	}

	// A broken scenario file: loud failure, exit 1.
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema":1,"bogus":true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errBuf = runCLI(t, []string{"-scenario", bad, "-q"})
	if code != 1 {
		t.Fatalf("bad scenario: exit %d, want 1", code)
	}
	if !strings.Contains(errBuf.String(), "bogus") {
		t.Errorf("stderr %q does not name the unknown field", errBuf.String())
	}
}

// TestExactParity is the CLI-level --exact check: a tiny fleet run with
// and without the operating-point surface must agree exactly on
// occupancy and bin accounting and within the surface's ε on the
// energy-side means.
func TestExactParity(t *testing.T) {
	decode := func(args []string) *powifi.FleetSummary {
		t.Helper()
		code, out, errBuf := runCLI(t, args)
		if code != 0 {
			t.Fatalf("exit %d: %s", code, errBuf.String())
		}
		var rep powifi.Report
		if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
			t.Fatal(err)
		}
		if rep.Fleet == nil {
			t.Fatal("report missing the fleet section")
		}
		return rep.Fleet
	}
	surf := decode(tinyArgs("-format", "json"))
	exact := decode(tinyArgs("-format", "json", "-exact"))

	if surf.HomeOccupancyPct != exact.HomeOccupancyPct {
		t.Errorf("occupancy stats diverged between paths:\nsurface %+v\nexact   %+v",
			surf.HomeOccupancyPct, exact.HomeOccupancyPct)
	}
	if surf.TotalBins != exact.TotalBins || surf.SilentBins != exact.SilentBins {
		t.Errorf("bin accounting diverged: %d/%d vs %d/%d",
			surf.TotalBins, surf.SilentBins, exact.TotalBins, exact.SilentBins)
	}
	const eps = 1e-6
	if d := math.Abs(surf.HomeHarvestUW.Mean - exact.HomeHarvestUW.Mean); d > math.Max(eps*exact.HomeHarvestUW.Mean, 1e-3) {
		t.Errorf("mean harvest diverged beyond ε: surface %v, exact %v µW",
			surf.HomeHarvestUW.Mean, exact.HomeHarvestUW.Mean)
	}
	if d := math.Abs(surf.MeanUpdateRateHz - exact.MeanUpdateRateHz); d > math.Max(eps*exact.MeanUpdateRateHz, 1e-6) {
		t.Errorf("mean rate diverged beyond ε: surface %v, exact %v Hz",
			surf.MeanUpdateRateHz, exact.MeanUpdateRateHz)
	}
}

// TestCheckpointResumeCLI is the end-to-end kill-and-resume drill: a
// run with -checkpoint is interrupted partway (here by breaking out of
// the SDK's Homes stream under the identical configuration, which
// exercises the same abort-write path an interrupt signal does), then
// the CLI is invoked again with the same flags. It must resume from
// the file, emit stdout byte-identical to a never-interrupted run —
// including at a different -workers value — and remove the checkpoint.
func TestCheckpointResumeCLI(t *testing.T) {
	code, want, errBuf := runCLI(t, tinyArgs("-format", "json"))
	if code != 0 {
		t.Fatalf("baseline exit %d: %s", code, errBuf.String())
	}

	// Interrupted leg: the same configuration tinyArgs describes, run
	// through the SDK with an early break so a committed-prefix
	// checkpoint is left on disk.
	path := filepath.Join(t.TempDir(), "fleet.ckpt")
	sc, err := powifi.NewScenario(
		powifi.WithHomes(3), powifi.WithSeed(9), powifi.WithWorkers(2),
		powifi.WithHorizon(2*time.Hour), powifi.WithBinWidth(30*time.Minute),
		powifi.WithWindow(2*time.Millisecond), powifi.WithCheckpoint(path),
	)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, err := range sc.Homes(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		if seen++; seen == 1 {
			break
		}
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("interrupted run left no checkpoint: %v", err)
	}

	// Resume leg, at a different worker count.
	code, out, errBuf := runCLI(t, tinyArgs("-format", "json", "-checkpoint", path, "-workers", "1"))
	if code != 0 {
		t.Fatalf("resume exit %d: %s", code, errBuf.String())
	}
	if !bytes.Equal(out.Bytes(), want.Bytes()) {
		t.Error("resumed CLI output differs from uninterrupted run")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("checkpoint not removed after successful run (stat: %v)", err)
	}

	// -checkpoint composes with -scenario (execution state, like
	// -telemetry), so a declarative sweep is resumable too.
	scenFile := filepath.Join(t.TempDir(), "fleet.json")
	data, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(scenFile, data, 0o644); err != nil {
		t.Fatal(err)
	}
	code, scenOut, errBuf := runCLI(t, []string{"-scenario", scenFile, "-checkpoint", path, "-format", "json", "-q"})
	if code != 0 {
		t.Fatalf("scenario+checkpoint exit %d: %s", code, errBuf.String())
	}
	if !bytes.Equal(scenOut.Bytes(), want.Bytes()) {
		t.Error("scenario+checkpoint output differs from flag-built run")
	}
}

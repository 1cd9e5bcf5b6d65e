// Golden-run regression suite: pins the numeric output of the
// powifi-bench tables/figures and a fixed-seed fleet run against
// committed golden files, so any drift in the reproduced paper numbers —
// from solver changes, surface retuning, or refactors — fails CI
// instead of slipping through. It also pins the scenario wire form (the
// JSON a -scenario file holds, and the loader's errors) byte for byte.
//
// Regenerate after an intentional change with:
//
//	go test -run TestGolden -update .
//
// Comparison is numeric-aware: the non-numeric skeleton must match
// exactly, and every number must agree within goldenRelTol. The
// simulator is bit-deterministic on a given platform, so regenerated
// goldens are stable there; the tolerance absorbs formatting-level
// noise only. Note the goldens are pinned on linux/amd64 (the CI
// platform): last-ulp libm differences on other architectures can
// amplify through discrete decisions (boot thresholds, grid-refinement
// accept/reject) beyond any tolerance, so regenerate on the CI platform
// if a cross-platform diff appears.
package powifi_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	powifi "repro"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/lifecycle"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

const (
	goldenDir    = "testdata/golden"
	goldenRelTol = 1e-9  // documented numeric drift tolerance
	goldenAbsTol = 1e-12 // for values at zero
)

var numberRE = regexp.MustCompile(`[-+]?\d+(\.\d+)?([eE][-+]?\d+)?`)

// compareGolden checks got against the named golden file (or rewrites it
// under -update).
func compareGolden(t *testing.T, name, got string) {
	t.Helper()
	want, ok := readGolden(t, name, got)
	if !ok {
		return
	}
	if err := diffNumeric(got, want); err != nil {
		t.Errorf("%s drifted from golden: %v\n(regenerate intentionally with -update)", name, err)
	}
}

// readGolden returns the named golden file's content, or rewrites it
// with got under -update and reports false.
func readGolden(t *testing.T, name, got string) (string, bool) {
	t.Helper()
	path := filepath.Join(goldenDir, name+".golden")
	if *update {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return "", false
	}
	wantBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (run `go test -run TestGolden -update .`): %v", path, err)
	}
	return string(wantBytes), true
}

// diffNumeric compares two texts: identical non-numeric skeletons, and
// numbers equal within the documented tolerance.
func diffNumeric(got, want string) error {
	gotNums := numberRE.FindAllString(got, -1)
	wantNums := numberRE.FindAllString(want, -1)
	gotSkel := numberRE.ReplaceAllString(got, "#")
	wantSkel := numberRE.ReplaceAllString(want, "#")
	if gotSkel != wantSkel {
		return fmt.Errorf("non-numeric structure changed:\n--- got ---\n%s\n--- want ---\n%s",
			firstDiffContext(gotSkel, wantSkel), firstDiffContext(wantSkel, gotSkel))
	}
	if len(gotNums) != len(wantNums) {
		return fmt.Errorf("number count changed: %d vs %d", len(gotNums), len(wantNums))
	}
	for i := range gotNums {
		g, err1 := strconv.ParseFloat(gotNums[i], 64)
		w, err2 := strconv.ParseFloat(wantNums[i], 64)
		if err1 != nil || err2 != nil {
			if gotNums[i] != wantNums[i] {
				return fmt.Errorf("token %d: %q vs %q", i, gotNums[i], wantNums[i])
			}
			continue
		}
		if math.Abs(g-w) > math.Max(goldenRelTol*math.Abs(w), goldenAbsTol) {
			return fmt.Errorf("number %d drifted: got %v, want %v (|Δ|=%g > tol)",
				i, g, w, math.Abs(g-w))
		}
	}
	return nil
}

// firstDiffContext returns a few lines around the first difference.
func firstDiffContext(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			lo := i - 1
			if lo < 0 {
				lo = 0
			}
			hi := i + 2
			if hi > len(la) {
				hi = len(la)
			}
			return fmt.Sprintf("(line %d) %s", i+1, strings.Join(la[lo:hi], "\n"))
		}
	}
	if len(la) != len(lb) {
		return fmt.Sprintf("(line count %d vs %d)", len(la), len(lb))
	}
	return "(no line-level diff; whitespace?)"
}

// goldenExperiments are the powifi-bench tables/figures pinned by the
// suite. The quick (non -full) configuration is used — the same tables
// the CLI prints by default. The slow set (fig6c's page loads, the
// deployment and device sweeps) is skipped under -short.
var goldenExperiments = []struct {
	id   string
	slow bool
}{
	{id: "fig1"},
	{id: "fig5"},
	{id: "fig6a"},
	{id: "fig6b"},
	{id: "fig7"},
	{id: "fig8"},
	{id: "fig9"},
	{id: "fig13"},
	{id: "fig16"},
	{id: "table1"},
	{id: "ext-multichannel"},
	{id: "ext-multirouter"},
	{id: "ext-pdos"},
	{id: "fig6c", slow: true},
	{id: "fig10", slow: true},
	{id: "fig11", slow: true},
	{id: "fig12", slow: true},
	{id: "fig14", slow: true},
	{id: "fig15", slow: true},
}

func TestGoldenBenchTables(t *testing.T) {
	for _, exp := range goldenExperiments {
		t.Run(exp.id, func(t *testing.T) {
			if exp.slow && testing.Short() {
				t.Skip("slow experiment; run without -short")
			}
			var buf bytes.Buffer
			if !experiments.Run(exp.id, &buf, experiments.Config{Quick: true}) {
				t.Fatalf("unknown experiment %q", exp.id)
			}
			compareGolden(t, "bench_"+exp.id, buf.String())
		})
	}
}

// goldenFleetConfig is the fixed-seed fleet run the suite pins: small
// enough for CI, large enough to exercise synthesis, sharding, sketches
// and both output serializations.
func goldenFleetConfig() fleet.Config {
	return fleet.Config{
		Homes:    6,
		Seed:     7,
		Workers:  2, // worker count never affects output; fixed for wall-clock sanity
		Hours:    2,
		BinWidth: 30 * time.Minute,
		Window:   2 * time.Millisecond,
	}
}

func TestGoldenFleetRun(t *testing.T) {
	res, err := fleet.Run(context.Background(), goldenFleetConfig())
	if err != nil {
		t.Fatal(err)
	}
	var text, js bytes.Buffer
	if err := res.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "fleet_text", text.String())
	compareGolden(t, "fleet_json", js.String())
}

// goldenLifecycleConfig pins the device-lifecycle engine: the golden
// fleet with a mixed device population spanning every archetype, run
// over enough bins for cold starts, frames and charge trajectories to
// show up in the aggregates.
func goldenLifecycleConfig() fleet.Config {
	cfg := goldenFleetConfig()
	cfg.Homes = 8
	cfg.Hours = 3
	cfg.Population = fleet.DefaultPopulation()
	var m lifecycle.Mix
	m[lifecycle.TempSensor] = 0.3
	m[lifecycle.RechargingTemp] = 0.15
	m[lifecycle.Camera] = 0.2
	m[lifecycle.Jawbone] = 0.15
	m[lifecycle.LiIon] = 0.1
	m[lifecycle.NiMH] = 0.1
	cfg.Population.Devices = m
	return cfg
}

func TestGoldenFleetLifecycleRun(t *testing.T) {
	res, err := fleet.Run(context.Background(), goldenLifecycleConfig())
	if err != nil {
		t.Fatal(err)
	}
	var text, js bytes.Buffer
	if err := res.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "fleet_lifecycle_text", text.String())
	compareGolden(t, "fleet_lifecycle_json", js.String())
}

// TestGoldenScenarioWire pins the scenario's declarative form byte for
// byte: the JSON that Scenario.MarshalJSON writes for one scenario per
// shape of setting, and the error LoadScenario gives for each kind of
// out-of-range value. Numbers in a wire form or an error text are part
// of the contract, so the comparison is exact, not numeric-aware.
func TestGoldenScenarioWire(t *testing.T) {
	pop := powifi.DefaultFleetPopulation()
	pop.MaxUsers = 6
	mix, err := powifi.ParseDeviceMix("temp=0.5,camera=0.3,jawbone=0.2")
	if err != nil {
		t.Fatal(err)
	}
	scenarios := []struct {
		name string
		opts []powifi.Option
	}{
		{"fleet-all", []powifi.Option{
			powifi.WithHomes(42), powifi.WithSeed(0), powifi.WithWorkers(3),
			powifi.WithHorizon(36 * time.Hour), powifi.WithBinWidth(20 * time.Minute),
			powifi.WithWindow(5 * time.Millisecond), powifi.WithExact(false),
			powifi.WithPopulation(pop), powifi.WithDevices(mix)}},
		{"fleet-coarse", []powifi.Option{powifi.WithHomes(7), powifi.WithCoarse(true)}},
		{"fleet-coarse-zero", []powifi.Option{powifi.WithHomes(7), powifi.WithCoarse(false)}},
		{"fleet-budgets", []powifi.Option{
			powifi.WithHomes(500), powifi.WithCoarse(true),
			powifi.WithFailurePolicy(powifi.FailurePolicy{Retry: 2, Skip: true}),
			powifi.WithDeadline(90 * time.Second), powifi.WithMaxFailedHomes(3)}},
		{"home-all", []powifi.Option{
			powifi.WithHome(powifi.PaperHomes()[2]), powifi.WithSensorDistance(7.5),
			powifi.WithSeed(11), powifi.WithHorizon(90 * time.Minute),
			powifi.WithBinWidth(15 * time.Minute), powifi.WithWindow(3 * time.Millisecond),
			powifi.WithExact(true), powifi.WithDevices(mix)}},
		{"experiment-all", []powifi.Option{
			powifi.WithExperiment("fig13"), powifi.WithFull(true), powifi.WithExact(true)}},
		{"empty", nil},
		{"execution-state-only", []powifi.Option{
			powifi.WithProgress(func(int, int) {}), powifi.WithTelemetry(powifi.NewTelemetry()),
			powifi.WithMetricsSink(io.Discard), powifi.WithTrace(powifi.NewTrace()),
			powifi.WithTraceOutput(io.Discard), powifi.WithCheckpoint("run.ckpt"),
			powifi.WithFaults("home.panic@2")}},
	}
	rejected := []struct{ name, data string }{
		{"bad horizon", `{"schema":1,"horizon":"fortnight"}`},
		{"negative sensor", `{"schema":1,"sensor_ft":-1}`},
		{"negative share", `{"schema":1,"devices":{"temp":-0.5}}`},
		{"negative deadline", `{"schema":1,"deadline":"-1s"}`},
		{"zero max_failed", `{"schema":1,"max_failed":0}`},
		{"negative retry", `{"schema":1,"failure_policy":{"retry":-1}}`},
		{"empty device mix", `{"schema":1,"devices":{}}`},
		{"negative home counts", `{"schema":1,"home":{"users":-3,"devices":-60,"neighbor_aps":-2,"start_hour":-30}}`},
		{"too many neighbor_aps", `{"schema":1,"home":{"users":1,"devices":1,"neighbor_aps":10001}}`},
		{"late start_hour", `{"schema":1,"home":{"users":1,"devices":1,"neighbor_aps":4,"start_hour":24}}`},
	}

	var b strings.Builder
	for _, sc := range scenarios {
		s, err := powifi.NewScenario(sc.opts...)
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		fmt.Fprintf(&b, "%s: %s\n", sc.name, data)
	}
	for _, rc := range rejected {
		if _, err := powifi.LoadScenario([]byte(rc.data)); err == nil {
			t.Errorf("%s: LoadScenario(%s) accepted", rc.name, rc.data)
		} else {
			fmt.Fprintf(&b, "%s: %v\n", rc.name, err)
		}
	}
	got := b.String()
	want, ok := readGolden(t, "scenario_wire", got)
	if ok && got != want {
		t.Errorf("scenario wire form drifted from golden:\n--- got ---\n%s--- want ---\n%s(regenerate intentionally with -update)", got, want)
	}
}

// Golden-run regression suite: pins the numeric output of the
// powifi-bench tables/figures and a fixed-seed fleet run against
// committed golden files, so any drift in the reproduced paper numbers —
// from solver changes, surface retuning, or refactors — fails CI
// instead of slipping through.
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
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

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
	path := filepath.Join(goldenDir, name+".golden")
	if *update {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return
	}
	wantBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (run `go test -run TestGolden -update .`): %v", path, err)
	}
	if err := diffNumeric(got, string(wantBytes)); err != nil {
		t.Errorf("%s drifted from golden: %v\n(regenerate intentionally with -update)", name, err)
	}
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

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	powifi "repro"
)

// TestMain lets the test binary serve as the runner's child process.
func TestMain(m *testing.M) {
	if spec, ok := os.LookupEnv(childEnv); ok {
		os.Exit(childMain(spec, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// benchmarkJSON is the repository's benchmark declaration.
type benchmarkJSON struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func direction(m metric) string {
	if m.lowerBetter {
		return "lower"
	}
	return "higher"
}

// TestDeclarationMatchesTables pins BENCHMARK.json to the metric and
// workload tables the runner prints from.
func TestDeclarationMatchesTables(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if bj.RunSeconds != runSeconds {
		t.Errorf("BENCHMARK.json run_seconds %d, a default pass measures %d s", bj.RunSeconds, runSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the runner runs %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: declared %q, runner has %q", i, w.Name, workloads[i].name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("declared %d+%d metrics, runner has %d+%d", len(bj.EndToEnd), len(bj.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range bj.EndToEnd {
		m := endToEnd[i]
		if d.Name != m.name || d.Unit != m.unit || d.Better != direction(m) || d.Bound != m.bound {
			t.Errorf("end_to_end %d: declared %+v, runner has %+v", i, d, m)
		}
	}
	for i, d := range bj.PerLayer {
		m := perLayer[i]
		if d.Name != m.name || d.Unit != m.unit || d.Better != direction(m) {
			t.Errorf("per_layer %d: declared %+v, runner has %+v", i, d, m)
		}
	}
}

// TestSmokeEveryWorkload runs each workload at 20 homes through both
// passes, each in one child process, and checks that every declared
// metric is printed, finite and in its unit, and that the result line
// reports a correct run.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("starts eight child processes, each building the operating-point surface")
	}
	bj := loadBenchmarkJSON(t)
	for _, w := range workloads {
		if w.workers > runtime.GOMAXPROCS(0) {
			t.Logf("skipping %s: needs GOMAXPROCS >= %d", w.name, w.workers)
			continue
		}
		var stdout, stderr bytes.Buffer
		d := testRunner(t, &stdout, &stderr, pinnedDigests)
		if code := d.runAll(context.Background(), []string{w.name}, 7, 0.001, []bool{false, true}); code != 0 {
			t.Fatalf("%s: exit %d\nstderr:\n%s", w.name, code, stderr.String())
		}
		printed := map[string]string{}
		var results []string
		for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
			if strings.HasPrefix(line, "{") {
				results = append(results, line)
				continue
			}
			f := strings.Fields(line)
			if len(f) != 4 || f[0] != w.name {
				t.Fatalf("%s: malformed line %q", w.name, line)
			}
			v, err := strconv.ParseFloat(f[2], 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s %s: value %q is not a finite number", w.name, f[1], f[2])
			}
			printed[f[1]] = f[3]
		}
		check := func(name, unit string) {
			if got, ok := printed[name]; !ok {
				t.Errorf("%s: %s not printed", w.name, name)
			} else if got != unit {
				t.Errorf("%s: %s printed in %q, declared %q", w.name, name, got, unit)
			}
		}
		for _, m := range bj.EndToEnd {
			check(m.Name, m.Unit)
		}
		for _, m := range bj.PerLayer {
			check(m.Name, m.Unit)
		}
		if len(results) != 2 {
			t.Fatalf("%s: %d result lines, want one per pass", w.name, len(results))
		}
		for _, r := range results {
			var res struct {
				Correct   bool                       `json:"correct"`
				Attempted int                        `json:"attempted"`
				Failed    int                        `json:"failed"`
				Metrics   map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(r), &res); err != nil {
				t.Fatalf("%s: result line %q: %v", w.name, r, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s: result %s", w.name, r)
			}
		}
		if _, err := os.Stat(filepath.Join(filepath.Dir(d.results), "bench-trace-"+w.name+".json")); err != nil {
			t.Errorf("%s: no Chrome trace: %v", w.name, err)
		}
	}
}

func testRunner(t *testing.T, stdout, stderr *bytes.Buffer, pins map[pinKey]string) *runner {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return &runner{
		stdout: stdout, stderr: stderr, exe: exe, pins: pins,
		results: filepath.Join(t.TempDir(), "results.json"), homes: 20,
	}
}

// TestFailedFracAccounting arms home panics: under a Skip policy the
// quarantined homes count as failed, k of n; fail-fast errors the run,
// which then counts all of its homes.
func TestFailedFracAccounting(t *testing.T) {
	w, _ := findWorkload("cold-start")
	for _, tc := range []struct {
		name   string
		policy powifi.FailurePolicy
		failed int
	}{
		{"skip", powifi.FailurePolicy{Skip: true}, 2},
		{"fail-fast", powifi.FailurePolicy{}, 20},
	} {
		spec := childSpec{Workload: w.name, Seed: 7, Homes: 20, Dir: t.TempDir()}
		res := untracedRun(context.Background(), w, spec,
			powifi.WithFaults("home.panic@3;home.panic@11"), powifi.WithFailurePolicy(tc.policy))
		rec := runRecord{}
		rec.account([]childRun{{res: res}})
		if rec.Attempted != 20 || rec.Failed != tc.failed || rec.FailedFrac != float64(tc.failed)/20 {
			t.Errorf("%s: attempted %d failed %d frac %v, want 20, %d, %v",
				tc.name, rec.Attempted, rec.Failed, rec.FailedFrac, tc.failed, float64(tc.failed)/20)
		}
		if tc.policy.Skip && len(res.Problems) != 0 {
			t.Errorf("%s: quarantined homes failed the output checks: %v", tc.name, res.Problems)
		}
	}
}

// TestDigestMismatchExitsNonZero pins a wrong digest: the pass must
// report an incorrect run and the runner exit non-zero.
func TestDigestMismatchExitsNonZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	pins := map[pinKey]string{{"cold-start", defaultSeed, 20}: strings.Repeat("0", 64)}
	d := testRunner(t, &stdout, &stderr, pins)
	if code := d.runAll(context.Background(), []string{"cold-start"}, defaultSeed, 0.001, []bool{false}); code == 0 {
		t.Fatalf("exit 0 on a digest mismatch\nstdout:\n%s", stdout.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if last := lines[len(lines)-1]; !strings.Contains(last, `"correct":false`) {
		t.Errorf("result line %q does not report an incorrect run", last)
	}
	if !strings.Contains(stderr.String(), "pinned "+strings.Repeat("0", 64)) {
		t.Errorf("stderr does not name the pinned digest:\n%s", stderr.String())
	}
}

// TestRefusalRunsTheRest refuses sweep-exact at GOMAXPROCS=1 with its
// reason, and still runs the workloads after it.
func TestRefusalRunsTheRest(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var stdout, stderr bytes.Buffer
	d := testRunner(t, &stdout, &stderr, pinnedDigests)
	if code := d.runAll(context.Background(), []string{"sweep-exact", "cold-start"}, 7, 0.001, []bool{false}); code != 2 {
		t.Errorf("exit %d, want 2 for the refused workload", code)
	}
	if !strings.Contains(stderr.String(), "refusing sweep-exact") {
		t.Errorf("stderr gives no reason for the refusal:\n%s", stderr.String())
	}
	if !strings.Contains(stdout.String(), "cold-start wall_s ") {
		t.Errorf("cold-start did not run after the refusal:\n%s", stdout.String())
	}
}

// TestCompareSeesFailures judges failures at +0: a change with an
// incorrect run, or with more failed homes, regressed and exits 1. A
// workload only one side ran is unresolved.
func TestCompareSeesFailures(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, correct bool, failed int) string {
		var rf resultsFile
		for i := 0; i < minPairs && name != "empty.json"; i++ {
			rf.Runs = append(rf.Runs, runRecord{
				Workload: "cold-start", StartedNS: int64(i), Correct: correct, Attempted: 100, Failed: failed,
				Metrics: map[string]sample{"wall_s": {Value: 1, Unit: "s"}},
			})
		}
		b, err := json.Marshal(rf)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	parent := write("parent.json", true, 0)
	for _, tc := range []struct {
		name    string
		change  string
		code    int
		verdict string
	}{
		{"same", write("same.json", true, 0), 0, "failed_frac unchanged"},
		{"incorrect", write("incorrect.json", false, 0), 1, "failed_frac regressed"},
		{"more failed homes", write("failed.json", true, 1), 1, "failed_frac regressed"},
		{"not run", write("empty.json", true, 0), 0, "failed_frac unresolved"},
	} {
		var stdout, stderr bytes.Buffer
		if code := compareMain(parent, tc.change, &stdout, &stderr); code != tc.code {
			t.Errorf("%s: exit %d, want %d\n%s", tc.name, code, tc.code, stdout.String())
		}
		if !strings.Contains(stdout.String(), "cold-start "+tc.verdict) {
			t.Errorf("%s: no %q verdict:\n%s", tc.name, tc.verdict, stdout.String())
		}
	}
}

// TestEndToEndScaling scales a child's times by its speed factor, and
// leaves setup time, memory and the unscaled record alone.
func TestEndToEndScaling(t *testing.T) {
	w, _ := findWorkload("cold-start")
	rec := runRecord{Homes: 100, Metrics: map[string]sample{}}
	r := &runner{stderr: io.Discard}
	r.endToEndMetrics(&rec, []childRun{{
		res:   childResult{SetupS: 0.9, SimS: 0.2},
		wallS: 1.2, cpuS: 2, rssM: 11, speed: 0.5,
	}}, w)
	for name, want := range map[string]float64{
		"setup_s": 0.9, "wall_s": 0.6, "homes_per_s": 1000, "cpu_s": 1, "peak_rss_mb": 11,
	} {
		if got := rec.Metrics[name].Value; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if rec.HostSpeed != 0.5 || rec.Unscaled["wall_s"] != 1.2 || rec.Unscaled["homes_per_s"] != 500 {
		t.Errorf("host speed %v, unscaled %v", rec.HostSpeed, rec.Unscaled)
	}
}

func TestPercentiles(t *testing.T) {
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-12 }
	// Quartiles as Python's statistics.quantiles(xs, n=4) gives them.
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.1, 0.5, 2.2, 9.0, 4.4}, 1.35, 3.1, 6.7},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if !near(q1, tc.q1) || !near(q2, tc.q2) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if q1, _, _ := quartiles([]float64{1}); !math.IsNaN(q1) {
		t.Errorf("quartiles of one sample = %v, want NaN", q1)
	}
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10, 11}
	for _, tc := range []struct{ p, want float64 }{{0, 1}, {50, 6}, {90, 10}, {100, 11}, {95, 10.5}} {
		if got := percentile(xs, tc.p); !near(got, tc.want) {
			t.Errorf("percentile(p%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is not NaN")
	}
}

func TestJudge(t *testing.T) {
	wall, _ := lookupMetric("wall_s")
	seq := func(base, step float64) []float64 {
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = base + step*float64(i)
		}
		return xs
	}
	parent := seq(10, 0.01) // spread ~0.5%
	for _, tc := range []struct {
		name   string
		change []float64
		alt    bool
		want   string
	}{
		{"faster in every pair", seq(9, 0.01), true, "improved"},
		{"same", seq(10, 0.01), true, "unchanged"},
		{"worse by more than the bound", seq(12.5, 0.01), true, "regressed"},
		{"worse within the bound", seq(10.5, 0.01), true, "unchanged"},
		{"too few pairs", seq(9, 0.01)[:9], true, "unresolved"},
		{"not alternated", seq(9, 0.01), false, "unresolved"},
	} {
		a := parent[:len(tc.change)]
		if got := judge(wall, a, tc.change, tc.alt); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
	noisy := []float64{8, 12, 9, 11, 10, 8, 12, 9, 11, 10} // spread ~30% > bound
	if got := judge(wall, noisy, seq(10, 0), true); got != "unresolved" {
		t.Errorf("noisy parent: %s, want unresolved", got)
	}
}

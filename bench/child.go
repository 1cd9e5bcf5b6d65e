package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	powifi "repro"
	"repro/internal/surface"
)

// childEnv carries a child process's job. Every run of a workload is a
// fresh process, so each pays the real surface build; the parent times
// it from exec to exit.
const childEnv = "POWIFI_BENCH_CHILD"

// childSpec is the job the parent hands a child.
type childSpec struct {
	Traced   bool   `json:"traced"`
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Homes    int    `json:"homes"`
	// Dir is a scratch directory the child owns (report, checkpoint);
	// the parent removes it after the child exits.
	Dir string `json:"dir"`
	// TraceOut is where a traced child writes its Chrome trace.
	TraceOut string `json:"trace_out,omitempty"`
}

// childResult is what a child prints as its last stdout line.
type childResult struct {
	// Untraced pass.
	SetupS float64 `json:"setup_s,omitempty"`
	SimS   float64 `json:"sim_s,omitempty"`
	Digest string  `json:"digest,omitempty"`
	// Traced pass.
	Layers map[string]sample `json:"layers,omitempty"`

	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// Problems lists failed output checks; empty when every check held.
	Problems []string `json:"problems,omitempty"`
}

// childMain runs the job in spec and prints its result.
func childMain(specJSON string, stdout, stderr io.Writer) int {
	var spec childSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		fmt.Fprintf(stderr, "bench child: bad %s: %v\n", childEnv, err)
		return 2
	}
	w, ok := findWorkload(spec.Workload)
	if !ok {
		fmt.Fprintf(stderr, "bench child: unknown workload %q\n", spec.Workload)
		return 2
	}
	ctx := context.Background()
	var res childResult
	if spec.Traced {
		res = tracedRun(ctx, w, spec, stderr)
	} else {
		res = untracedRun(ctx, w, spec)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "bench child: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

// untracedRun is one end-to-end run as a user makes it: build the
// surfaces the workload queries, run the scenario, write the report.
// extra options are appended to the workload's (tests arm faults with
// them).
func untracedRun(ctx context.Context, w workload, spec childSpec, extra ...powifi.Option) childResult {
	res := childResult{Attempted: spec.Homes}
	fail := func(err error) childResult {
		res.Failed = spec.Homes
		res.Problems = append(res.Problems, err.Error())
		return res
	}

	t0 := time.Now()
	for _, h := range w.harvesters() {
		surface.For(h)
	}
	res.SetupS = time.Since(t0).Seconds()

	sc, err := powifi.NewScenario(append(w.options(spec.Homes, spec.Seed, spec.Dir, w.observed), extra...)...)
	if err != nil {
		return fail(err)
	}
	t1 := time.Now()
	rep, err := sc.Run(ctx)
	res.SimS = time.Since(t1).Seconds()
	if err != nil {
		return fail(err)
	}
	if err := writeReport(rep, filepath.Join(spec.Dir, "report.json")); err != nil {
		return fail(err)
	}
	if res.Digest, err = fleetDigest(rep.Fleet); err != nil {
		return fail(err)
	}
	res.Failed = rep.Fleet.FailedHomes
	res.Problems = checkFleet(rep.Fleet, w, spec.Homes)
	return res
}

// writeReport writes rep as JSON to path, as powifi-fleet does.
func writeReport(rep *powifi.Report, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := rep.WriteJSON(bw); err != nil {
		f.Close()
		return fmt.Errorf("writing report: %w", err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing report: %w", err)
	}
	return f.Close()
}

// fleetDigest hashes a report's fleet section. The section is
// deterministic in (seed, configuration) and identical at any worker
// count, so equal digests mean equal simulation output.
func fleetDigest(s *powifi.FleetSummary) (string, error) {
	if s == nil {
		return "", errors.New("report has no fleet section")
	}
	b, err := json.Marshal(s)
	if err != nil {
		return "", fmt.Errorf("hashing fleet section: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// checkFleet checks the fleet section's accounting: every home either
// counted or quarantined, every counted home's bins present, and the
// run complete.
func checkFleet(s *powifi.FleetSummary, w workload, homes int) []string {
	var problems []string
	ok := homes - s.FailedHomes
	if s.Homes != homes {
		problems = append(problems, fmt.Sprintf("fleet reports %d homes, ran %d", s.Homes, homes))
	}
	if s.Partial {
		problems = append(problems, "fleet report is partial: "+s.PartialReason)
	}
	if want := uint64(ok * w.bins()); s.TotalBins != want {
		problems = append(problems, fmt.Sprintf("fleet reports %d bins, want %d", s.TotalBins, want))
	}
	if s.HomeOccupancyPct.N != uint64(ok) {
		problems = append(problems, fmt.Sprintf("occupancy distribution holds %d homes, want %d", s.HomeOccupancyPct.N, ok))
	}
	return problems
}

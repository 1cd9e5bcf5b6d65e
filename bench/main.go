// Command bench is the fleet engine's re-runnable benchmark: four
// workloads, each run in fresh child processes so every run pays the
// real operating-point surface build, measured end to end (untraced,
// through the public SDK as a user calls it) and layer by layer (a
// traced pass that times each package's public functions from
// outside). Build and run it from the repository root:
//
//	bash bench/run.sh                      # every workload, both passes
//	bash bench/run.sh -workload sweep-exact -trace 0 -seed 7
//	bash bench/run.sh -compare parent.json change.json
//
// Each pass prints "workload metric value unit" lines, then one JSON
// object on its last line, appends its record to the results file, and
// exits non-zero if an output check failed. README.md lists the
// workloads, the metrics and how to read the trace.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// runSeconds is how long one pass measures by default: BENCHMARK.json's
// run_seconds, the length the bounds were measured at.
const runSeconds = 25

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if spec, ok := os.LookupEnv(childEnv); ok {
		return childMain(spec, stdout, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run (default: all four in turn)")
	seed := fs.Uint64("seed", defaultSeed, "seed the workload's homes derive from")
	// BENCHMARK.json's runner passes -seconds (its run_seconds) and -trace
	// on every run, one pass at a time; the defaults run that same
	// configuration, both passes.
	seconds := fs.Float64("seconds", runSeconds, "how long each pass measures; child processes start until the next would overrun")
	trace := fs.String("trace", "both", "0: end-to-end pass, 1: per-layer pass, both: one then the other")
	results := fs.String("results", filepath.Join(".bench_build", "results.json"),
		"results file each run is appended to; scratch files and Chrome traces go beside it")
	compare := fs.Bool("compare", false, "compare two results files: -compare parent.json change.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two results files")
			return 2
		}
		return compareMain(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	var passes []bool
	switch *trace {
	case "0":
		passes = []bool{false}
	case "1":
		passes = []bool{true}
	case "both":
		passes = []bool{false, true}
	default:
		fmt.Fprintf(stderr, "bench: -trace %q, want 0, 1 or both\n", *trace)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be > 0")
		return 2
	}
	names := []string{*workload}
	if *workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	r := &runner{stdout: stdout, stderr: stderr, exe: exe, pins: pinnedDigests, results: *results}
	return r.runAll(context.Background(), names, *seed, *seconds, passes)
}

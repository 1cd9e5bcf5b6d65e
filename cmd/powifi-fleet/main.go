// Command powifi-fleet runs the fleet-scale deployment study: thousands
// of synthesized homes simulated in parallel, reduced to population
// aggregates (occupancy CDFs, harvested-power distribution, sensor
// latency tails). Results are bit-for-bit identical at any -workers
// value; only wall-clock time changes.
//
// The command is a thin flag→Scenario shim over the public SDK
// (powifi.NewScenario / Scenario.Run): every flag maps to one option,
// and -scenario file.json runs a declarative scenario instead
// (powifi.LoadScenario; combining it with configuration flags is an
// error). Interrupting the process cancels the run's context, so the
// worker pool drains and exits cleanly.
//
// The per-bin rectifier solve is served from the error-bounded
// operating-point surface by default; -exact bypasses the surface and
// pays the full Bessel/Newton solve per bin, which is only useful for
// validating the surface's ε guarantee.
//
// -coarse selects the error-bounded coarse sampling tier for
// million-home sweeps: only anchor bins run the packet-level event
// simulation, the bins between are proxied from each home's exact
// offered-load plan, and any bin whose boot/silence decision is not
// provably stable escalates back to the event simulation. Boot/silence
// decisions stay bit-identical to the default tier; aggregate
// magnitudes carry the tier's ε, which is certified at the default 10ms
// -window; a shorter -window is refused. Incompatible with -devices.
//
// A population device mix (-devices) switches on the stateful
// device-lifecycle engine: each home is assigned one device archetype —
// temp, rtemp, camera, jawbone, liion or nimh — drawn from the given
// shares, storage state of charge is threaded across the home's bins,
// and the report gains per-archetype time-domain sections (time to
// first update, outage fraction, frames captured, state-of-charge
// trajectory, time to full charge). -horizon sets the per-home
// deployment duration for such runs (it overrides -duration; the two
// are aliases otherwise).
//
// -checkpoint FILE makes a sweep resumable: the run periodically
// writes its committed home prefix to FILE (atomically), writes it
// once more on interrupt, and removes it on success. Running the same
// configuration again with the same -checkpoint resumes from the
// prefix and produces output bit-identical to an uninterrupted run, at
// any -workers value. The file refuses to resume under a different
// configuration. Composes with -scenario and -devices.
//
// Failure handling defaults to fail-fast: a home whose simulation
// panics aborts the run with a structured error naming the home.
// -retry N re-attempts each failed home up to N more times on a fresh
// sampler; -skip-failed quarantines homes that exhaust their retries
// into the report's errors section and keeps going; -max-failed N caps
// the quarantine under -skip-failed. -deadline D bounds the run's
// wall-clock time: when it expires the run commits the finished home
// prefix, writes a final checkpoint (with -checkpoint), and emits a
// report marked partial instead of failing. Which homes fail, retry
// and quarantine is workers-invariant, like every other result.
// -faults SPEC arms deterministic fault injection (the chaos-
// certification hook; see internal/faultinject for the grammar) and is
// not meant for production runs.
//
// Exit codes:
//
//	0  run completed; report written
//	1  runtime error (simulation failure, I/O error, cancellation)
//	2  usage error (bad flags or arguments)
//	3  partial result: a -deadline or -max-failed budget ended the run
//	   early; the report was written and covers the committed prefix
//
// Observability is strictly out of band: -telemetry collects run
// metrics (counters, histograms, phase spans, run manifest) without
// changing a byte of output, -metrics-out FILE writes them in
// Prometheus text format, -metrics-addr HOST:PORT serves live /metrics
// and /debug/vars during the run, and -progress draws a live stderr
// ticker on interactive terminals (silently skipped when stderr is
// redirected). -trace FILE records the run's span tree (run → phase →
// worker → home → bin-batch) and per-home flight recorders and writes
// them to FILE in Chrome trace-event JSON, loadable in Perfetto or
// about://tracing; the json report gains a "trace" section whose
// deterministic half is bit-identical at any -workers value. With
// -telemetry the stderr timing line is followed by a table of the
// slowest homes. All of these compose with -scenario.
//
// Examples:
//
//	powifi-fleet -homes 1000 -seed 42
//	powifi-fleet -homes 5000 -workers 8 -duration 24h -format json
//	powifi-fleet -homes 20 -exact -format json   # surface bypass
//	powifi-fleet -devices temp=0.5,camera=0.3,jawbone=0.2 -horizon 72h
//	powifi-fleet -scenario fleet.json -format csv
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"time"

	powifi "repro"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	go func() {
		// First interrupt cancels the run's context for a clean drain;
		// unregistering then restores the default handler so a second
		// interrupt kills the process outright.
		<-ctx.Done()
		stop()
	}()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args and executes the fleet; split from main so the CLI
// surface (flag validation, output schemas, -scenario conflicts,
// -exact parity) is testable in-process.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("powifi-fleet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		homes    = fs.Int("homes", 1000, "number of homes to simulate")
		workers  = fs.Int("workers", 0, "simulation workers (0 = GOMAXPROCS)")
		seed     = fs.Uint64("seed", 1, "fleet seed; all randomness derives from it")
		duration = fs.Duration("duration", 24*time.Hour, "deployment duration per home")
		bin      = fs.Duration("bin", time.Hour, "occupancy logging bin width")
		window   = fs.Duration("window", 10*time.Millisecond, "packet-level sample window per bin")
		format   = fs.String("format", "text", "output format: text, json or csv")
		devices  = fs.String("devices", "", "device-archetype shares enabling the lifecycle engine, e.g. temp=0.5,camera=0.3,jawbone=0.2")
		horizon  = fs.Duration("horizon", 0, "deployment horizon per home (overrides -duration when set)")
		exact    = fs.Bool("exact", false, "bypass the operating-point surface; solve every bin exactly")
		coarse   = fs.Bool("coarse", false, "error-bounded coarse tier: event-simulate anchor bins, proxy the rest (decisions bit-identical; magnitudes within the ε certified at the default 10ms -window; a shorter -window is refused)")
		scenPath = fs.String("scenario", "", "run a declarative scenario JSON file instead of the configuration flags")
		quiet    = fs.Bool("q", false, "suppress the timing line on stderr")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file, each home's samples labelled phase=simulate, home=<index>")
		memProf  = fs.String("memprofile", "", "write a heap profile to this file on exit")
		telem    = fs.Bool("telemetry", false, "collect run telemetry; json reports gain a \"telemetry\" section")
		metrOut  = fs.String("metrics-out", "", "write run metrics to this file in Prometheus text format (implies -telemetry)")
		metrAddr = fs.String("metrics-addr", "", "serve live /metrics and /debug/vars on this address (implies -telemetry)")
		progress = fs.Bool("progress", false, "show a live progress line on stderr (interactive terminals only)")
		trOut    = fs.String("trace", "", "write the run's trace (span tree + per-home flight recorders) to this file in Chrome trace-event JSON")
		ckptPath = fs.String("checkpoint", "", "periodically checkpoint the run to this file and resume from it if present; removed on success")
		retry    = fs.Int("retry", 0, "re-attempt each failed home up to this many more times")
		skipF    = fs.Bool("skip-failed", false, "quarantine homes that exhaust their retries instead of aborting")
		maxFail  = fs.Int("max-failed", 0, "end the run with a partial report after this many quarantined homes (requires -skip-failed; 0 = unlimited)")
		deadline = fs.Duration("deadline", 0, "wall-clock budget; on expiry the run ends with a partial report covering the committed homes (exit code 3)")
		faults   = fs.String("faults", "", "arm deterministic fault injection (chaos certification; spec: site@key[,times=N][,delay=D];...)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "unexpected arguments: %v\n", fs.Args())
		return 2
	}

	switch *format {
	case "text", "json", "csv":
	default:
		fmt.Fprintf(stderr, "unknown format %q (want text, json or csv)\n", *format)
		return 2
	}

	var sc *powifi.Scenario
	if *scenPath != "" {
		// The scenario file is the single source of configuration:
		// mixing it with configuration flags would silently ignore one
		// side, so it is an error. Output and tooling flags compose.
		var conflicts []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "scenario", "format", "q", "cpuprofile", "memprofile",
				"telemetry", "metrics-out", "metrics-addr", "progress", "trace",
				"checkpoint", "faults":
			default:
				conflicts = append(conflicts, "-"+f.Name)
			}
		})
		if len(conflicts) > 0 {
			fmt.Fprintf(stderr, "flags %v conflict with -scenario: the scenario file is the single source of configuration\n", conflicts)
			return 2
		}
		data, err := os.ReadFile(*scenPath)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if sc, err = powifi.LoadScenario(data); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	} else {
		opts := []powifi.Option{
			powifi.WithHomes(*homes),
			powifi.WithSeed(*seed),
			powifi.WithWorkers(*workers),
			powifi.WithBinWidth(*bin),
			powifi.WithWindow(*window),
			powifi.WithExact(*exact),
			powifi.WithCoarse(*coarse),
		}
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "horizon" {
				*duration = *horizon
			}
		})
		opts = append(opts, powifi.WithHorizon(*duration))
		if *devices != "" {
			mix, err := powifi.ParseDeviceMix(*devices)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 2
			}
			opts = append(opts, powifi.WithDevices(mix))
		}
		if *retry != 0 || *skipF {
			opts = append(opts, powifi.WithFailurePolicy(powifi.FailurePolicy{Retry: *retry, Skip: *skipF}))
		}
		if *deadline != 0 {
			opts = append(opts, powifi.WithDeadline(*deadline))
		}
		if *maxFail != 0 {
			opts = append(opts, powifi.WithMaxFailedHomes(*maxFail))
		}
		var err error
		if sc, err = powifi.NewScenario(opts...); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}

	// Telemetry and progress are execution state, not configuration, so
	// they attach uniformly — to flag-built and -scenario scenarios
	// alike — via Scenario.With.
	var extra []powifi.Option
	var tel *powifi.Telemetry
	if *telem || *metrOut != "" || *metrAddr != "" {
		tel = powifi.NewTelemetry()
		extra = append(extra, powifi.WithTelemetry(tel))
	}
	var prog *progressTicker
	if *progress && isTerminal(stderr) {
		prog = newProgressTicker(stderr, time.Now)
		extra = append(extra, powifi.WithProgress(prog.update))
	}
	var traceFile *os.File
	if *trOut != "" {
		f, err := os.Create(*trOut)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		traceFile = f
		extra = append(extra, powifi.WithTraceOutput(f))
	}
	if *ckptPath != "" {
		extra = append(extra, powifi.WithCheckpoint(*ckptPath))
	}
	if *faults != "" {
		extra = append(extra, powifi.WithFaults(*faults))
	}
	if len(extra) > 0 {
		var err error
		if sc, err = sc.With(extra...); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	if *metrAddr != "" {
		ln, err := net.Listen("tcp", *metrAddr)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		// Graceful teardown: an abrupt Close at exit would reset a
		// /metrics scrape mid-response; ServeMetrics' shutdown lets an
		// in-flight scrape finish under a short deadline.
		defer powifi.ServeMetrics(ln, powifi.MetricsHandler(tel))()
		if !*quiet {
			fmt.Fprintf(stderr, "serving metrics on http://%s/metrics\n", ln.Addr())
		}
	}

	stopProf, err := powifi.StartProfiling(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(stderr, err)
		}
	}()

	start := time.Now()
	rep, err := sc.Run(ctx)
	prog.finish()
	if traceFile != nil {
		// The trace bytes are written during Run; only the close can
		// still fail here.
		if cerr := traceFile.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if !*quiet {
		if rep.Fleet != nil {
			fmt.Fprintf(stderr, "simulated %d homes in %v\n",
				rep.Fleet.Homes, time.Since(start).Round(time.Millisecond))
		} else {
			fmt.Fprintf(stderr, "completed %s scenario in %v\n",
				rep.Mode, time.Since(start).Round(time.Millisecond))
		}
		if tel != nil {
			writeSlowHomes(stderr, tel)
		}
	}
	endWrite := func() {}
	if tel != nil {
		endWrite = tel.Span("report_write")
	}
	switch *format {
	case "text":
		err = rep.WriteText(stdout)
	case "json":
		err = rep.WriteJSON(stdout)
	case "csv":
		err = rep.WriteCSV(stdout)
	}
	endWrite()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	// The Prometheus file is written after the report so its span list
	// includes report_write; the Report's embedded snapshot is taken
	// earlier, at the end of the run, and does not carry that span.
	if *metrOut != "" {
		if err := writeMetricsFile(*metrOut, tel); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	if rep.Fleet != nil && rep.Fleet.Partial {
		// The report above is complete for the committed prefix; the
		// distinct exit code lets sweep drivers resume or alert without
		// parsing it.
		fmt.Fprintf(stderr, "partial result (%s): aggregates cover %d of %d homes\n",
			rep.Fleet.PartialReason, rep.Fleet.CommittedHomes, rep.Fleet.Homes)
		return 3
	}
	return 0
}

// writeSlowHomes prints the telemetry collector's slowest-homes table
// (label, wall time, dominant span) to stderr. It is diagnostic output
// like the timing line: stdout stays byte-identical with or without it.
func writeSlowHomes(w io.Writer, tel *powifi.Telemetry) {
	snap := tel.Snapshot()
	if len(snap.SlowHomes) == 0 {
		return
	}
	fmt.Fprintln(w, "slowest homes:")
	for _, s := range snap.SlowHomes {
		fmt.Fprintf(w, "  %-18s %10.1f ms  %s\n", s.Label, s.WallMS, s.DominantSpan)
	}
}

// writeMetricsFile dumps the collector's Prometheus text export to path.
func writeMetricsFile(path string, tel *powifi.Telemetry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tel.WritePrometheus(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

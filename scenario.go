package powifi

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"iter"
	"sync"
	"time"

	"repro/internal/deploy"
	"repro/internal/experiments"
	"repro/internal/faultinject"
	"repro/internal/fleet"
	"repro/internal/lifecycle"
	"repro/internal/phy"
	"repro/internal/surface"
	powifitrace "repro/internal/trace"
)

// Run modes a Scenario resolves to. The mode is never set directly:
// it is derived from which options the scenario carries (WithExperiment
// selects ModeExperiment, WithHome selects ModeHome, everything else is
// a fleet run) and echoed in Report.Mode and the scenario JSON.
const (
	ModeFleet      = "fleet"
	ModeHome       = "home"
	ModeExperiment = "experiment"
)

// Scenario is the composable description of one simulation run — the
// SDK's single entry point for single-home deployments (§6), fleet-
// scale populations, device-lifecycle studies, and the paper's table/
// figure experiments. Build one with NewScenario and functional
// options, or load a declarative JSON form with LoadScenario; execute
// it with Run, or stream results with Bins (single-home) and Homes
// (fleet). A Scenario is immutable after NewScenario and safe for
// concurrent use by multiple goroutines (each Run builds its own
// simulation state), with two caveats: the WithProgress callback, if
// any, must itself be safe for the concurrency the caller creates, and
// experiment scenarios with WithExact toggle the process-wide
// operating-point surface for the duration of their Run — they
// serialize among themselves, but a concurrent non-exact run in the
// same process would take the exact solver path during that window
// (identical boot decisions, results within the surface's certified ε,
// just slower).
type Scenario struct {
	set        optSet
	homes      int
	seed       uint64
	workers    int
	horizon    time.Duration
	binWidth   time.Duration
	window     time.Duration
	exact      bool
	coarse     bool
	population FleetPopulation
	devices    DeviceMix
	home       HomeConfig
	sensorFt   float64
	experiment string
	full       bool
	progress   func(done, total int)
	telemetry  *Telemetry
	metricsTo  io.Writer
	trace      *Trace
	traceTo    io.Writer
	checkpoint string
	policy     FailurePolicy
	deadline   time.Duration
	maxFailed  int
	faults     string
}

// optSet tracks which options a scenario carries, so zero values the
// caller explicitly asked for (seed 0, exact false) are distinguished
// from defaults, and so the JSON form round-trips exactly.
type optSet uint32

const (
	optHomes optSet = 1 << iota
	optSeed
	optWorkers
	optHorizon
	optBinWidth
	optWindow
	optExact
	optCoarse
	optPopulation
	optDevices
	optHome
	optSensor
	optExperiment
	optFull
	optProgress
	optTelemetry
	optMetricsSink
	optCheckpoint
	optPolicy
	optDeadline
	optMaxFailed
	optFaults
	optTrace
	optTraceOut
)

// Option configures a Scenario under construction.
type Option func(*Scenario) error

// NewScenario builds an immutable scenario from the given options,
// validating that they describe exactly one run mode. Numeric
// validation (home counts, durations, population bounds) happens at
// Run, where it is shared with the underlying engines.
func NewScenario(opts ...Option) (*Scenario, error) {
	s := &Scenario{}
	for _, opt := range opts {
		if opt == nil {
			return nil, errors.New("powifi: nil Option")
		}
		if err := opt(s); err != nil {
			return nil, err
		}
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// With derives a new scenario from s with additional options applied —
// the escape hatch for attaching execution state (WithProgress,
// WithTelemetry, WithMetricsSink, WithCheckpoint) to a scenario loaded from its JSON
// form, which deliberately cannot carry it. The receiver is never
// modified; the derived scenario is re-validated as a whole.
func (s *Scenario) With(opts ...Option) (*Scenario, error) {
	clone := *s
	for _, opt := range opts {
		if opt == nil {
			return nil, errors.New("powifi: nil Option")
		}
		if err := opt(&clone); err != nil {
			return nil, err
		}
	}
	if err := clone.validate(); err != nil {
		return nil, err
	}
	return &clone, nil
}

// WithHomes sets the number of synthesized households of a fleet run
// (default 1000).
func WithHomes(n int) Option {
	return func(s *Scenario) error { s.homes, s.set = n, s.set|optHomes; return nil }
}

// WithSeed sets the seed all randomness derives from. Fleet runs
// default to seed 1; single-home runs default to the configured home's
// own Seed field.
func WithSeed(seed uint64) Option {
	return func(s *Scenario) error { s.seed, s.set = seed, s.set|optSeed; return nil }
}

// WithWorkers sets the fleet's simulation parallelism (0, the default,
// means GOMAXPROCS). Worker count never affects results, only
// wall-clock time: fleet output is bit-for-bit identical at any value.
func WithWorkers(n int) Option {
	return func(s *Scenario) error { s.workers, s.set = n, s.set|optWorkers; return nil }
}

// WithHorizon sets the simulated deployment duration (default 24 h).
// It is snapped down to a whole number of logging bins.
func WithHorizon(d time.Duration) Option {
	return func(s *Scenario) error { s.horizon, s.set = d, s.set|optHorizon; return nil }
}

// WithBinWidth sets the occupancy logging resolution (default 1 h for
// fleet runs, 60 s for single-home runs, matching the paper).
func WithBinWidth(d time.Duration) Option {
	return func(s *Scenario) error { s.binWidth, s.set = d, s.set|optBinWidth; return nil }
}

// WithWindow sets the packet-level sample window simulated per logging
// bin (default 10 ms for fleet runs, 1 s for single-home runs).
func WithWindow(d time.Duration) Option {
	return func(s *Scenario) error { s.window, s.set = d, s.set|optWindow; return nil }
}

// WithExact bypasses the error-bounded operating-point surface and
// solves every rectifier operating point directly (slower; for
// validating the surface's ε guarantee).
func WithExact(exact bool) Option {
	return func(s *Scenario) error { s.exact, s.set = exact, s.set|optExact; return nil }
}

// WithCoarse selects the fleet's error-bounded coarse sampling tier:
// only anchor bins run the packet-level event simulation, the bins
// between are proxied from each home's exact offered-load plan, and
// any bin whose boot/silence decision is not provably stable escalates
// back to the event simulation. Boot/silence decisions stay
// bit-identical to the default exact tier; aggregate magnitudes carry
// the tier's certified ε (documented on the engine's CoarseOptions).
// Fleet-only, and incompatible with WithDevices: the lifecycle ledger
// integrates per-bin magnitudes over time, which would compound the
// proxy ε outside its certified bound. Run refuses it with a WithWindow
// below 10ms, the window its ε is certified at.
func WithCoarse(coarse bool) Option {
	return func(s *Scenario) error { s.coarse, s.set = coarse, s.set|optCoarse; return nil }
}

// WithPopulation sets the household distributions a fleet's homes are
// drawn from (default DefaultFleetPopulation).
func WithPopulation(p FleetPopulation) Option {
	return func(s *Scenario) error { s.population, s.set = p, s.set|optPopulation; return nil }
}

// WithDevices enables the stateful device-lifecycle engine. In a fleet
// scenario the mix's shares are the population weights each home's
// archetype is drawn from; in a single-home scenario every archetype
// with a positive share contributes one device to the household and
// the shares' magnitudes are ignored. Overrides the Devices field of a
// WithPopulation population.
func WithDevices(m DeviceMix) Option {
	return func(s *Scenario) error {
		if err := m.Validate(); err != nil {
			return err
		}
		if !m.Enabled() {
			return errors.New("powifi: WithDevices requires at least one positive share")
		}
		s.devices, s.set = m, s.set|optDevices
		return nil
	}
}

// WithHome selects single-home mode: the §6 deployment runner over one
// household. Combine with WithSensorDistance, WithHorizon, WithBinWidth,
// WithWindow, WithDevices and WithExact; fleet options (WithHomes,
// WithPopulation, WithWorkers) conflict with it.
func WithHome(h HomeConfig) Option {
	return func(s *Scenario) error { s.home, s.set = h, s.set|optHome; return nil }
}

// WithSensorDistance places the single-home run's battery-free sensor
// (default 10 ft, the paper's placement). Requires WithHome; a fleet's
// placements come from its population distribution instead.
func WithSensorDistance(ft float64) Option {
	return func(s *Scenario) error {
		if ft <= 0 {
			return fmt.Errorf("powifi: sensor distance %v ft, need > 0", ft)
		}
		s.sensorFt, s.set = ft, s.set|optSensor
		return nil
	}
}

// WithExperiment selects experiment mode: regenerate one of the
// paper's tables or figures (see Experiments for the ids). Only
// WithFull and WithExact compose with it.
func WithExperiment(id string) Option {
	return func(s *Scenario) error {
		if id == "" {
			return errors.New("powifi: empty experiment id")
		}
		s.experiment, s.set = id, s.set|optExperiment
		return nil
	}
}

// WithFull switches an experiment scenario from the quick reduced
// configuration (the default) to the paper-scale one.
func WithFull(full bool) Option {
	return func(s *Scenario) error { s.full, s.set = full, s.set|optFull; return nil }
}

// WithProgress registers a callback invoked once per completed unit of
// work — homes for fleet runs, logging bins for single-home runs —
// with the number done so far and the total. Fleet progress arrives in
// home-index order at any worker count, always from the goroutine that
// called Run (or is consuming Homes). Progress is execution state, not
// configuration: it is excluded from the scenario's JSON form.
func WithProgress(fn func(done, total int)) Option {
	return func(s *Scenario) error {
		if fn == nil {
			return errors.New("powifi: nil progress callback")
		}
		s.progress, s.set = fn, s.set|optProgress
		return nil
	}
}

// WithCheckpoint makes a fleet run resumable: the run periodically
// writes its committed home prefix to path (atomically — a crash mid-
// write leaves the previous checkpoint intact), writes it once more on
// cancellation, and removes the file on successful completion. A
// subsequent Run with the same scenario and path resumes from the
// prefix and produces output bit-identical to an uninterrupted run, at
// any WithWorkers value — WithDevices populations included. The file
// refuses to resume under a different configuration. Like
// WithProgress, a checkpoint path is execution state, not
// configuration: it is excluded from the scenario's JSON form.
func WithCheckpoint(path string) Option {
	return func(s *Scenario) error {
		if path == "" {
			return errors.New("powifi: empty checkpoint path")
		}
		s.checkpoint, s.set = path, s.set|optCheckpoint
		return nil
	}
}

// WithFailurePolicy decides what a per-home worker failure (a panic
// inside the simulation of one home) does to a fleet run. The default
// zero policy fails fast: the run aborts with a structured *HomeError
// naming the home. Retry re-runs the failed home up to n more times on
// a fresh sampler; Skip quarantines homes that exhaust their retries
// into the report's Errors section and keeps going. Failure handling
// is workers-invariant: the same homes fail, retry and quarantine — in
// home-index order — at any WithWorkers value.
func WithFailurePolicy(p FailurePolicy) Option {
	return func(s *Scenario) error {
		if p.Retry < 0 {
			return fmt.Errorf("powifi: FailurePolicy.Retry = %d, need >= 0", p.Retry)
		}
		s.policy, s.set = p, s.set|optPolicy
		return nil
	}
}

// WithDeadline bounds a fleet run's wall-clock time. When it expires
// the run stops gracefully: the committed home prefix is kept, a
// final checkpoint is written (under WithCheckpoint), and Run returns
// a Report whose fleet summary is marked Partial with reason
// "deadline" — not an error. A run whose every home committed before
// the expiry is complete. Cancelling the context remains an error;
// only the deadline degrades gracefully.
func WithDeadline(d time.Duration) Option {
	return func(s *Scenario) error {
		if d <= 0 {
			return fmt.Errorf("powifi: deadline %v, need > 0", d)
		}
		s.deadline, s.set = d, s.set|optDeadline
		return nil
	}
}

// WithMaxFailedHomes caps the number of quarantined homes a Skip
// policy tolerates. Exceeding the cap ends the run with a partial
// fleet summary (reason "failure_budget") covering the committed
// prefix. Requires a WithFailurePolicy with Skip set.
func WithMaxFailedHomes(n int) Option {
	return func(s *Scenario) error {
		if n <= 0 {
			return fmt.Errorf("powifi: MaxFailedHomes = %d, need > 0", n)
		}
		s.maxFailed, s.set = n, s.set|optMaxFailed
		return nil
	}
}

// WithFaults arms deterministic fault injection for a fleet run —
// the chaos-certification hook behind the CLI's hidden -faults flag.
// The spec grammar is internal/faultinject's Parse form
// ("site@key[,times=N][,delay=D]" joined by ";"); faults derive from
// the run seed, so an armed run is as reproducible as a clean one.
// Execution state: excluded from the scenario's JSON form.
func WithFaults(spec string) Option {
	return func(s *Scenario) error {
		if spec == "" {
			return errors.New("powifi: empty fault spec")
		}
		if _, err := faultinject.Parse(0, spec); err != nil {
			return fmt.Errorf("powifi: %v", err)
		}
		s.faults, s.set = spec, s.set|optFaults
		return nil
	}
}

// validate checks that the applied options describe exactly one mode.
func (s *Scenario) validate() error {
	switch {
	case s.set&optExperiment != 0:
		if bad := s.set &^ (optExperiment | optFull | optExact); bad != 0 {
			return fmt.Errorf("powifi: experiment scenario %q accepts only WithFull and WithExact", s.experiment)
		}
	case s.set&optHome != 0:
		if bad := s.set & (optHomes | optPopulation | optWorkers); bad != 0 {
			return errors.New("powifi: WithHome (single-home mode) conflicts with WithHomes/WithPopulation/WithWorkers")
		}
		if s.set&optFull != 0 {
			return errors.New("powifi: WithFull applies only to experiment scenarios")
		}
		if s.set&(optTelemetry|optMetricsSink) != 0 {
			return errors.New("powifi: WithTelemetry/WithMetricsSink apply only to fleet scenarios")
		}
		if s.set&(optTrace|optTraceOut) != 0 {
			return errors.New("powifi: WithTrace/WithTraceOutput apply only to fleet scenarios")
		}
		if s.set&optCoarse != 0 {
			return errors.New("powifi: WithCoarse applies only to fleet scenarios (the coarse tier proxies across a population's bins)")
		}
		if s.set&optCheckpoint != 0 {
			return errors.New("powifi: WithCheckpoint applies only to fleet scenarios (single homes simulate in well under a second)")
		}
		if s.set&(optPolicy|optDeadline|optMaxFailed|optFaults) != 0 {
			return errors.New("powifi: WithFailurePolicy/WithDeadline/WithMaxFailedHomes/WithFaults apply only to fleet scenarios")
		}
	default:
		if s.set&optSensor != 0 {
			return errors.New("powifi: WithSensorDistance requires WithHome; fleet placements come from the population")
		}
		if s.set&optFull != 0 {
			return errors.New("powifi: WithFull applies only to experiment scenarios")
		}
	}
	return nil
}

// Mode returns the run mode the scenario resolves to: ModeFleet,
// ModeHome or ModeExperiment.
func (s *Scenario) Mode() string {
	switch {
	case s.set&optExperiment != 0:
		return ModeExperiment
	case s.set&optHome != 0:
		return ModeHome
	default:
		return ModeFleet
	}
}

// Run executes the scenario to completion and reduces it into the
// unified Report. Cancelling ctx stops fleet and single-home
// simulations promptly — workers check their context once per logging
// bin, drain and exit cleanly — and Run returns ctx.Err() with a nil
// Report; partial results are discarded, never silently truncated.
// Experiment runners predate the context plumbing and check
// cancellation only between runs, so an in-flight experiment completes
// before the cancellation is honored.
func (s *Scenario) Run(ctx context.Context) (*Report, error) {
	switch s.Mode() {
	case ModeExperiment:
		return s.runExperiment(ctx)
	case ModeHome:
		return s.runHome(ctx)
	default:
		return s.runFleet(ctx)
	}
}

// fleetConfig assembles the underlying fleet configuration, leaving
// unset options to the engine's defaults.
func (s *Scenario) fleetConfig() fleet.Config {
	cfg := fleet.DefaultConfig()
	if s.set&optHomes != 0 {
		cfg.Homes = s.homes
	}
	if s.set&optSeed != 0 {
		cfg.Seed = s.seed
	}
	if s.set&optWorkers != 0 {
		cfg.Workers = s.workers
	}
	if s.set&optHorizon != 0 {
		cfg.Hours = s.horizon.Hours()
	}
	if s.set&optBinWidth != 0 {
		cfg.BinWidth = s.binWidth
	}
	if s.set&optWindow != 0 {
		cfg.Window = s.window
	}
	if s.set&optPopulation != 0 {
		cfg.Population = s.population
	}
	if s.set&optDevices != 0 {
		cfg.Population.Devices = s.devices
	}
	cfg.Exact = s.exact
	cfg.Coarse = s.coarse
	if s.set&optPolicy != 0 {
		cfg.Policy = s.policy
	}
	if s.set&optDeadline != 0 {
		cfg.Deadline = s.deadline
	}
	if s.set&optMaxFailed != 0 {
		cfg.MaxFailedHomes = s.maxFailed
	}
	return cfg
}

// fleetHooks assembles the engine hooks Run and Homes share: progress,
// checkpoint, faults and observability. An output option without an
// explicit collector or recorder still needs one to write, so it gets
// a fresh one.
func (s *Scenario) fleetHooks(cfg fleet.Config) fleet.Hooks {
	h := fleet.Hooks{Progress: s.progress, Telemetry: s.telemetry, Trace: s.trace}
	if h.Telemetry == nil && s.set&optMetricsSink != 0 {
		h.Telemetry = NewTelemetry()
	}
	if h.Trace == nil && s.set&optTraceOut != 0 {
		h.Trace = NewTrace()
	}
	if s.set&optCheckpoint != 0 {
		h.Checkpoint = &fleet.Checkpoint{Path: s.checkpoint}
	}
	if s.set&optFaults != 0 {
		// Armed against the run's resolved seed. The spec was validated
		// at option time; re-parsing with the real seed cannot fail.
		fi, err := faultinject.Parse(cfg.Seed, s.faults)
		if err != nil {
			panic("powifi: validated fault spec failed to re-parse: " + err.Error())
		}
		h.Faults = fi
	}
	return h
}

// writeSinks writes the WithMetricsSink and WithTraceOutput outputs of
// a finished run.
func (s *Scenario) writeSinks(h fleet.Hooks) error {
	if s.metricsTo != nil {
		if err := h.Telemetry.WritePrometheus(s.metricsTo); err != nil {
			return fmt.Errorf("powifi: writing metrics sink: %w", err)
		}
	}
	if s.traceTo != nil {
		if err := h.Trace.WriteChrome(s.traceTo); err != nil {
			return fmt.Errorf("powifi: writing trace output: %w", err)
		}
	}
	return nil
}

func (s *Scenario) runFleet(ctx context.Context) (*Report, error) {
	cfg := s.fleetConfig()
	h := s.fleetHooks(cfg)
	endRun := h.Trace.Span(powifitrace.SpanRun)
	res, err := fleet.RunWith(ctx, cfg, h)
	endRun()
	if err != nil {
		return nil, err
	}
	sum := res.Summarize()
	rep := newReport(ModeFleet, &Report{Fleet: &sum})
	if h.Telemetry != nil {
		snap := h.Telemetry.Snapshot()
		rep.Telemetry = &snap
	}
	if h.Trace != nil {
		tsum := h.Trace.Summary()
		rep.Trace = &tsum
	}
	if err := s.writeSinks(h); err != nil {
		return nil, err
	}
	return rep, nil
}

// homeRun assembles the single-home configuration and options, leaving
// unset fields to the deployment runner's defaults (24 h, 60 s bins,
// 1 s windows, 10 ft).
func (s *Scenario) homeRun() (HomeConfig, deploy.Options) {
	home := s.home
	if s.set&optSeed != 0 {
		home.Seed = s.seed
	}
	opts := deploy.Options{Exact: s.exact}
	if s.set&optHorizon != 0 {
		opts.Hours = s.horizon.Hours()
	}
	if s.set&optBinWidth != 0 {
		opts.BinWidth = s.binWidth
	}
	if s.set&optWindow != 0 {
		opts.Window = s.window
	}
	if s.set&optSensor != 0 {
		opts.SensorDistanceFt = s.sensorFt
	}
	return home, opts
}

// homeDevices builds the household's lifecycle devices: one per
// archetype with a positive share, in canonical order.
func (s *Scenario) homeDevices() lifecycle.Group {
	if s.set&optDevices == 0 {
		return nil
	}
	var g lifecycle.Group
	for _, k := range lifecycle.Kinds() {
		if s.devices[k] > 0 {
			d := lifecycle.NewDevice(k, lifecycle.Policy{})
			d.Exact = s.exact
			g = append(g, d)
		}
	}
	return g
}

func (s *Scenario) runHome(ctx context.Context) (*Report, error) {
	home, opts := s.homeRun()
	// ropts is a resolved view for validation and the report echo; the
	// unresolved opts go to RunBatch, which normalizes them itself.
	ropts := opts.Resolved()
	nBins := ropts.NumBins()
	if nBins < 1 {
		return nil, fmt.Errorf("powifi: horizon %.3gh is shorter than one %v bin", ropts.Hours, ropts.BinWidth)
	}
	// The gate runs before each bin's packet-level sample: it reports
	// the bins simulated so far, then checks ctx. The last bin's
	// progress fires once the batch is evaluated.
	gate := func(bin int) bool {
		if bin > 0 && s.progress != nil {
			s.progress(bin, nBins)
		}
		return ctx.Err() == nil
	}
	var b deploy.BinBatch
	if !deploy.NewSampler().RunBatch(home, opts, &b, gate) {
		return nil, ctx.Err()
	}
	if s.progress != nil {
		s.progress(nBins, nBins)
	}

	m := b.Means()
	hr := &HomeReport{
		Home:                home,
		SensorFt:            ropts.SensorDistanceFt,
		Hours:               float64(nBins) * ropts.BinWidth.Hours(),
		BinWidthS:           ropts.BinWidth.Seconds(),
		WindowS:             ropts.Window.Seconds(),
		Exact:               ropts.Exact,
		Bins:                b.Len(),
		SilentBins:          m.SilentBins,
		MeanCumulativePct:   m.CumulativePct,
		MeanHarvestUW:       m.BankedHarvestUW,
		MeanUpdateRateHz:    m.SensorRate,
		ChannelOccupancyPct: make(map[string]float64, 3),
	}
	for i, ch := range phy.PoWiFiChannels {
		hr.ChannelOccupancyPct[ch.String()] = m.ChannelPct[i]
	}
	if devs := s.homeDevices(); devs != nil {
		devs.Begin(ropts.SensorDistanceFt, ropts.BinWidth)
		devs.VisitBatch(&b)
		for _, d := range devs {
			hr.Devices = append(hr.Devices, d.Section())
		}
	}
	return newReport(ModeHome, &Report{Home: hr}), nil
}

// exactExperimentMu serializes experiment runs that bypass the
// operating-point surface: the bypass is a process-wide switch (the
// experiment runners predate per-run Exact plumbing), so concurrent
// save/disable/restore sequences would corrupt each other and could
// leave the surface disabled for the whole process.
var exactExperimentMu sync.Mutex

func (s *Scenario) runExperiment(ctx context.Context) (*Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.exact {
		// The experiment runners consult the process-wide surface
		// switch; serialize exact runs and restore whatever happens.
		// Concurrent non-exact runs during this window would also see
		// the surface off — see the Scenario doc's concurrency caveat.
		exactExperimentMu.Lock()
		defer exactExperimentMu.Unlock()
		prev := surface.Enabled()
		surface.SetEnabled(false)
		defer surface.SetEnabled(prev)
	}
	var buf bytes.Buffer
	if !experiments.Run(s.experiment, &buf, !s.full) {
		return nil, fmt.Errorf("powifi: unknown experiment %q", s.experiment)
	}
	return newReport(ModeExperiment, &Report{Experiment: &ExperimentReport{
		ID:     s.experiment,
		Full:   s.full,
		Output: buf.String(),
	}}), nil
}

// Bins streams a single-home scenario's logging bins in order — the
// iterator form of Run for consumers that want the per-bin trace
// instead of the reduced report. The home is simulated as one batch,
// as under Run, and its bins are yielded once the batch is complete:
// breaking out of the loop stops delivery, not simulation, and memory
// is O(bins) either way. The WithProgress callback, if any, fires per
// yielded bin. On cancellation — checked before every simulated bin
// and every yielded one — the iterator yields ctx.Err() once (with a
// zero BinSample) and stops. Calling Bins on a fleet or experiment
// scenario — or with a horizon Run would reject — yields a single
// error.
func (s *Scenario) Bins(ctx context.Context) iter.Seq2[BinSample, error] {
	return func(yield func(BinSample, error) bool) {
		if s.Mode() != ModeHome {
			yield(BinSample{}, fmt.Errorf("powifi: Bins requires a single-home scenario (mode %q; use WithHome)", s.Mode()))
			return
		}
		home, opts := s.homeRun()
		ropts := opts.Resolved()
		nBins := ropts.NumBins()
		if nBins < 1 {
			// Same misconfiguration Run rejects: a silent empty stream
			// would read as "no data" rather than "bad horizon".
			yield(BinSample{}, fmt.Errorf("powifi: horizon %.3gh is shorter than one %v bin", ropts.Hours, ropts.BinWidth))
			return
		}
		var b deploy.BinBatch
		gate := func(int) bool { return ctx.Err() == nil }
		if !deploy.NewSampler().RunBatch(home, opts, &b, gate) {
			yield(BinSample{}, ctx.Err())
			return
		}
		for i := 0; i < b.Len(); i++ {
			if err := ctx.Err(); err != nil {
				yield(BinSample{}, err)
				return
			}
			if !yield(b.Sample(i), nil) {
				return
			}
			if s.progress != nil {
				s.progress(i+1, nBins)
			}
		}
	}
}

// Homes streams a fleet scenario's per-home records in home-index
// order — identical records in identical order at any WithWorkers
// value. Breaking out of the loop stops the run: workers drain and
// exit cleanly, and nothing further is simulated. On cancellation the
// iterator yields ctx.Err() once (with a zero HomeRecord) and stops.
// A run cut short by a degradation budget (WithDeadline,
// WithMaxFailedHomes) ends with one error, after the committed
// records, naming the budget's reason and the committed home count —
// the stream form of Run's partial fleet summary. The observability
// options apply as under Run: WithTelemetry and WithTrace fill their
// collector and recorder, and WithMetricsSink and WithTraceOutput are
// written once the stream ends without error or early break. Calling
// Homes on a single-home or experiment scenario yields a single error.
func (s *Scenario) Homes(ctx context.Context) iter.Seq2[HomeRecord, error] {
	return func(yield func(HomeRecord, error) bool) {
		if s.Mode() != ModeFleet {
			yield(HomeRecord{}, fmt.Errorf("powifi: Homes requires a fleet scenario (mode %q)", s.Mode()))
			return
		}
		stopped := false
		cfg := s.fleetConfig()
		h := s.fleetHooks(cfg)
		h.Home = func(r fleet.HomeRecord) bool {
			stopped = !yield(r, nil)
			return !stopped
		}
		endRun := h.Trace.Span(powifitrace.SpanRun)
		res, err := fleet.RunWith(ctx, cfg, h)
		endRun()
		if stopped {
			return
		}
		if err == nil {
			err = s.writeSinks(h)
			if res.Partial {
				err = errors.Join(fmt.Errorf("powifi: fleet run partial (%s): %d of %d homes committed",
					res.PartialReason, res.CommittedHomes, cfg.Homes), err)
			}
		}
		if err != nil {
			yield(HomeRecord{}, err)
		}
	}
}

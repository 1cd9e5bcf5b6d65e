package powifi

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"iter"
	"time"

	"repro/internal/deploy"
	"repro/internal/experiments"
	"repro/internal/faultinject"
	"repro/internal/fleet"
	"repro/internal/lifecycle"
	"repro/internal/phy"
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
// concurrent use by multiple goroutines: each Run builds its own
// simulation state, and every option, WithExact included, holds for
// that run only. The WithProgress callback, if any, must itself be
// safe for the concurrency the caller creates.
type Scenario struct {
	conf       settings
	progress   func(done, total int)
	telemetry  *Telemetry
	metricsTo  io.Writer
	trace      *Trace
	traceTo    io.Writer
	checkpoint string
	faults     string
}

// settings is a scenario's configuration, and field for field its
// declarative JSON form (see MarshalJSON). A nil pointer or an empty
// string is an unset option: the engine's default applies and the key
// is omitted, so explicit zeros (seed 0, exact false) survive the round
// trip. Durations are kept in Go duration syntax ("24h0m0s"). Scenarios
// derived by With share the pointed-to values with their parent, so
// nothing may write through these pointers.
type settings struct {
	Homes      *int             `json:"homes,omitempty"`
	Seed       *uint64          `json:"seed,omitempty"`
	Workers    *int             `json:"workers,omitempty"`
	Horizon    string           `json:"horizon,omitempty"`
	BinWidth   string           `json:"bin,omitempty"`
	Window     string           `json:"window,omitempty"`
	Exact      *bool            `json:"exact,omitempty"`
	Coarse     *bool            `json:"coarse,omitempty"`
	Population *FleetPopulation `json:"population,omitempty"`
	Devices    *DeviceMix       `json:"devices,omitempty"`
	Home       *HomeConfig      `json:"home,omitempty"`
	SensorFt   *float64         `json:"sensor_ft,omitempty"`
	Experiment string           `json:"experiment,omitempty"`
	Full       *bool            `json:"full,omitempty"`
	Policy     *FailurePolicy   `json:"failure_policy,omitempty"`
	Deadline   string           `json:"deadline,omitempty"`
	MaxFailed  *int             `json:"max_failed,omitempty"`
}

// Option configures a Scenario under construction.
type Option func(*Scenario) error

// NewScenario builds an immutable scenario from the given options and
// validates it. The SDK owns only the rules its wire form adds: duration
// syntax, that an explicit zero is a value rather than "unset", and that
// the options describe exactly one run mode. Every range rule is the
// engine's, applied through the engine's own check: the household, the
// sensor distance, the device mix and the failure budgets here; the
// timing, the fleet's home count and its population bounds at Run.
func NewScenario(opts ...Option) (*Scenario, error) {
	return (&Scenario{}).With(opts...)
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
	return func(s *Scenario) error { s.conf.Homes = &n; return nil }
}

// WithSeed sets the seed all randomness derives from. Fleet runs
// default to seed 1; single-home runs default to the configured home's
// own Seed field.
func WithSeed(seed uint64) Option {
	return func(s *Scenario) error { s.conf.Seed = &seed; return nil }
}

// WithWorkers sets the fleet's simulation parallelism (0, the default,
// means GOMAXPROCS). Worker count never affects results, only
// wall-clock time: fleet output is bit-for-bit identical at any value.
func WithWorkers(n int) Option {
	return func(s *Scenario) error { s.conf.Workers = &n; return nil }
}

// WithHorizon sets the simulated deployment duration (default 24 h).
// It is snapped down to a whole number of logging bins. Run refuses a
// horizon that is not positive; zero does not select the default.
func WithHorizon(d time.Duration) Option {
	return func(s *Scenario) error { s.conf.Horizon = d.String(); return nil }
}

// WithBinWidth sets the occupancy logging resolution (default 1 h for
// fleet runs, 60 s for single-home runs, matching the paper). Run
// refuses a width that is not positive; zero does not select the
// default.
func WithBinWidth(d time.Duration) Option {
	return func(s *Scenario) error { s.conf.BinWidth = d.String(); return nil }
}

// WithWindow sets the packet-level sample window simulated per logging
// bin (default 10 ms for fleet runs, 1 s for single-home runs). Run
// refuses a window that is not positive; zero does not select the
// default.
func WithWindow(d time.Duration) Option {
	return func(s *Scenario) error { s.conf.Window = d.String(); return nil }
}

// WithExact bypasses the error-bounded operating-point surface and
// solves every rectifier operating point directly (slower; for
// validating the surface's ε guarantee).
func WithExact(exact bool) Option {
	return func(s *Scenario) error { s.conf.Exact = &exact; return nil }
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
	return func(s *Scenario) error { s.conf.Coarse = &coarse; return nil }
}

// WithPopulation sets the household distributions a fleet's homes are
// drawn from (default DefaultFleetPopulation).
func WithPopulation(p FleetPopulation) Option {
	return func(s *Scenario) error { s.conf.Population = &p; return nil }
}

// WithDevices enables the stateful device-lifecycle engine. In a fleet
// scenario the mix's shares are the population weights each home's
// archetype is drawn from; in a single-home scenario every archetype
// with a positive share contributes one device to the household and
// the shares' magnitudes are ignored. Overrides the Devices field of a
// WithPopulation population.
func WithDevices(m DeviceMix) Option {
	return func(s *Scenario) error { s.conf.Devices = &m; return nil }
}

// WithHome selects single-home mode: the §6 deployment runner over one
// household. Combine with WithSensorDistance, WithHorizon, WithBinWidth,
// WithWindow, WithDevices and WithExact; fleet options (WithHomes,
// WithPopulation, WithWorkers) conflict with it.
func WithHome(h HomeConfig) Option {
	return func(s *Scenario) error { s.conf.Home = &h; return nil }
}

// WithSensorDistance places the single-home run's battery-free sensor
// (default 10 ft, the paper's placement). Requires WithHome; a fleet's
// placements come from its population distribution instead.
func WithSensorDistance(ft float64) Option {
	return func(s *Scenario) error { s.conf.SensorFt = &ft; return nil }
}

// WithExperiment selects experiment mode: regenerate one of the
// paper's tables or figures (see Experiments for the ids). Only
// WithFull and WithExact compose with it.
func WithExperiment(id string) Option {
	return func(s *Scenario) error {
		if id == "" {
			return errors.New("powifi: empty experiment id")
		}
		s.conf.Experiment = id
		return nil
	}
}

// WithFull switches an experiment scenario from the quick reduced
// configuration (the default) to the paper-scale one.
func WithFull(full bool) Option {
	return func(s *Scenario) error { s.conf.Full = &full; return nil }
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
		s.progress = fn
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
		s.checkpoint = path
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
	return func(s *Scenario) error { s.conf.Policy = &p; return nil }
}

// WithDeadline bounds a fleet run's wall-clock time. When it expires
// the run stops gracefully: the committed home prefix is kept, a
// final checkpoint is written (under WithCheckpoint), and Run returns
// a Report whose fleet summary is marked Partial with reason
// "deadline" — not an error. A run whose every home committed before
// the expiry is complete. Cancelling the context remains an error;
// only the deadline degrades gracefully.
func WithDeadline(d time.Duration) Option {
	return func(s *Scenario) error { s.conf.Deadline = d.String(); return nil }
}

// WithMaxFailedHomes caps the number of quarantined homes a Skip
// policy tolerates. Exceeding the cap ends the run with a partial
// fleet summary (reason "failure_budget") covering the committed
// prefix. Requires a WithFailurePolicy with Skip set.
func WithMaxFailedHomes(n int) Option {
	return func(s *Scenario) error { s.conf.MaxFailed = &n; return nil }
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
		s.faults = spec
		return nil
	}
}

// check runs the per-setting checks — the one check NewScenario, With
// and LoadScenario share — and rewrites each duration in its canonical
// Go syntax, so a loaded "1h" marshals as "1h0m0s". Beyond syntax and
// explicit zeros, each rule is an engine check's.
func (c *settings) check() error {
	for _, d := range []struct {
		name string
		v    *string
	}{{"horizon", &c.Horizon}, {"bin", &c.BinWidth}, {"window", &c.Window}, {"deadline", &c.Deadline}} {
		if *d.v == "" {
			continue
		}
		v, err := time.ParseDuration(*d.v)
		if err != nil {
			return fmt.Errorf("powifi: scenario %s: %w", d.name, err)
		}
		*d.v = v.String()
	}
	if c.Devices != nil {
		if err := c.Devices.Validate(); err != nil {
			return err
		}
		if !c.Devices.Enabled() {
			return errors.New("powifi: WithDevices requires at least one positive share")
		}
	}
	if c.Home != nil {
		if err := c.Home.Validate(); err != nil {
			return fmt.Errorf("powifi: home %w", err)
		}
	}
	if c.SensorFt != nil {
		o := deploy.DefaultOptions()
		o.SensorDistanceFt = *c.SensorFt
		if err := o.Validate(); err != nil {
			return fmt.Errorf("powifi: %w", err)
		}
	}
	// The fleet reads a zero deadline or failure budget as "none", which
	// a set option cannot mean.
	switch {
	case c.Deadline != "" && *dur(c.Deadline) == 0:
		return fmt.Errorf("powifi: deadline %s, need > 0", c.Deadline)
	case c.MaxFailed != nil && *c.MaxFailed == 0:
		return errors.New("powifi: MaxFailedHomes = 0, need > 0")
	}
	var budgets fleet.Config
	setIf(&budgets.Policy, c.Policy)
	setIf(&budgets.Deadline, dur(c.Deadline))
	setIf(&budgets.MaxFailedHomes, c.MaxFailed)
	if err := budgets.ValidateBudgets(); err != nil {
		return fmt.Errorf("powifi: %w", err)
	}
	return nil
}

// timing overlays the set timing options on the engine defaults d and
// runs the deploy check on the result, so an explicit zero reaches the
// check as a value, never as "unset".
func (c *settings) timing(d deploy.Options) (deploy.Options, error) {
	if h := dur(c.Horizon); h != nil {
		d.Hours = h.Hours()
	}
	setIf(&d.BinWidth, dur(c.BinWidth))
	setIf(&d.Window, dur(c.Window))
	setIf(&d.SensorDistanceFt, c.SensorFt)
	if err := d.Validate(); err != nil {
		return d, fmt.Errorf("powifi: %w", err)
	}
	return d, nil
}

// validate runs the per-setting checks, then checks that the scenario
// describes exactly one mode, reading which options it carries from
// which fields are set.
func (s *Scenario) validate() error {
	c := &s.conf
	if err := c.check(); err != nil {
		return err
	}
	metrics := s.telemetry != nil || s.metricsTo != nil
	traced := s.trace != nil || s.traceTo != nil
	switch s.Mode() {
	case ModeExperiment:
		// Any setting but these three, or any execution state, conflicts.
		rest := *c
		rest.Experiment, rest.Full, rest.Exact = "", nil, nil
		if rest != (settings{}) || s.progress != nil || metrics || traced || s.checkpoint != "" || s.faults != "" {
			return fmt.Errorf("powifi: experiment scenario %q accepts only WithFull and WithExact", c.Experiment)
		}
	case ModeHome:
		switch {
		case c.Homes != nil || c.Population != nil || c.Workers != nil:
			return errors.New("powifi: WithHome (single-home mode) conflicts with WithHomes/WithPopulation/WithWorkers")
		case c.Full != nil:
			return errors.New("powifi: WithFull applies only to experiment scenarios")
		case metrics:
			return errors.New("powifi: WithTelemetry/WithMetricsSink apply only to fleet scenarios")
		case traced:
			return errors.New("powifi: WithTrace/WithTraceOutput apply only to fleet scenarios")
		case c.Coarse != nil:
			return errors.New("powifi: WithCoarse applies only to fleet scenarios (the coarse tier proxies across a population's bins)")
		case s.checkpoint != "":
			return errors.New("powifi: WithCheckpoint applies only to fleet scenarios (single homes simulate in well under a second)")
		case c.Policy != nil || c.Deadline != "" || c.MaxFailed != nil || s.faults != "":
			return errors.New("powifi: WithFailurePolicy/WithDeadline/WithMaxFailedHomes/WithFaults apply only to fleet scenarios")
		}
	default:
		switch {
		case c.SensorFt != nil:
			return errors.New("powifi: WithSensorDistance requires WithHome; fleet placements come from the population")
		case c.Full != nil:
			return errors.New("powifi: WithFull applies only to experiment scenarios")
		}
	}
	return nil
}

// dur is a validated duration setting's value, nil when unset.
func dur(v string) *time.Duration {
	if v == "" {
		return nil
	}
	d, _ := time.ParseDuration(v) // check parsed it
	return &d
}

// setIf copies a setting into an engine field when it is set, leaving
// the field's default otherwise.
func setIf[T any](dst *T, v *T) {
	if v != nil {
		*dst = *v
	}
}

// on reports whether a boolean setting is set and true.
func on(b *bool) bool { return b != nil && *b }

// Mode returns the run mode the scenario resolves to: ModeFleet,
// ModeHome or ModeExperiment.
func (s *Scenario) Mode() string {
	switch {
	case s.conf.Experiment != "":
		return ModeExperiment
	case s.conf.Home != nil:
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
// unset options to the engine's defaults. The fleet reads a zero
// duration as unset, so the timing is checked here, as set.
func (s *Scenario) fleetConfig() (fleet.Config, error) {
	c, cfg := &s.conf, fleet.DefaultConfig()
	d := deploy.DefaultOptions()
	d.Hours, d.BinWidth, d.Window = cfg.Hours, cfg.BinWidth, cfg.Window
	t, err := c.timing(d)
	if err != nil {
		return cfg, err
	}
	cfg.Hours, cfg.BinWidth, cfg.Window = t.Hours, t.BinWidth, t.Window
	setIf(&cfg.Homes, c.Homes)
	setIf(&cfg.Seed, c.Seed)
	setIf(&cfg.Workers, c.Workers)
	setIf(&cfg.Population, c.Population)
	setIf(&cfg.Population.Devices, c.Devices)
	setIf(&cfg.Exact, c.Exact)
	setIf(&cfg.Coarse, c.Coarse)
	setIf(&cfg.Policy, c.Policy)
	setIf(&cfg.Deadline, dur(c.Deadline))
	setIf(&cfg.MaxFailedHomes, c.MaxFailed)
	return cfg, nil
}

// fleetHooks assembles the engine hooks Run and Homes share: progress,
// checkpoint, faults and observability. An output option without an
// explicit collector or recorder still needs one to write, so it gets
// a fresh one.
func (s *Scenario) fleetHooks(cfg fleet.Config) fleet.Hooks {
	h := fleet.Hooks{Progress: s.progress, Telemetry: s.telemetry, Trace: s.trace}
	if h.Telemetry == nil && s.metricsTo != nil {
		h.Telemetry = NewTelemetry()
	}
	if h.Trace == nil && s.traceTo != nil {
		h.Trace = NewTrace()
	}
	if s.checkpoint != "" {
		h.Checkpoint = &fleet.Checkpoint{Path: s.checkpoint}
	}
	if s.faults != "" {
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
	cfg, err := s.fleetConfig()
	if err != nil {
		return nil, err
	}
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

// homeRun assembles the single-home configuration and the checked
// options, filling unset fields from the deployment runner's defaults
// (24 h, 60 s bins, 1 s windows, 10 ft), and the home's bin count.
func (s *Scenario) homeRun() (HomeConfig, deploy.Options, int, error) {
	c := &s.conf
	home := *c.Home
	setIf(&home.Seed, c.Seed)
	opts, err := c.timing(deploy.DefaultOptions())
	if err != nil {
		return home, opts, 0, err
	}
	opts.Exact = on(c.Exact)
	return home, opts, opts.NumBins(), nil
}

// homeDevices builds the household's lifecycle devices: one per
// archetype with a positive share, in canonical order.
func (s *Scenario) homeDevices() lifecycle.Group {
	if s.conf.Devices == nil {
		return nil
	}
	var g lifecycle.Group
	for _, k := range lifecycle.Kinds() {
		if s.conf.Devices[k] > 0 {
			d := lifecycle.NewDevice(k, lifecycle.Policy{})
			d.Exact = on(s.conf.Exact)
			g = append(g, d)
		}
	}
	return g
}

func (s *Scenario) runHome(ctx context.Context) (*Report, error) {
	home, opts, nBins, err := s.homeRun()
	if err != nil {
		return nil, err
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
		SensorFt:            opts.SensorDistanceFt,
		Hours:               float64(nBins) * opts.BinWidth.Hours(),
		BinWidthS:           opts.BinWidth.Seconds(),
		WindowS:             opts.Window.Seconds(),
		Exact:               opts.Exact,
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
		devs.Begin(opts.SensorDistanceFt, opts.BinWidth)
		devs.VisitBatch(&b)
		for _, d := range devs {
			hr.Devices = append(hr.Devices, d.Section())
		}
	}
	return newReport(ModeHome, &Report{Home: hr}), nil
}

func (s *Scenario) runExperiment(ctx context.Context) (*Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	id, full := s.conf.Experiment, on(s.conf.Full)
	var buf bytes.Buffer
	if !experiments.Run(id, &buf, experiments.Config{Quick: !full, Exact: on(s.conf.Exact)}) {
		return nil, fmt.Errorf("powifi: unknown experiment %q", id)
	}
	return newReport(ModeExperiment, &Report{Experiment: &ExperimentReport{
		ID:     id,
		Full:   full,
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
// scenario — or with options Run would reject — yields a single
// error.
func (s *Scenario) Bins(ctx context.Context) iter.Seq2[BinSample, error] {
	return func(yield func(BinSample, error) bool) {
		if s.Mode() != ModeHome {
			yield(BinSample{}, fmt.Errorf("powifi: Bins requires a single-home scenario (mode %q; use WithHome)", s.Mode()))
			return
		}
		home, opts, nBins, err := s.homeRun()
		if err != nil {
			// Same misconfiguration Run rejects: a silent empty stream
			// would read as "no data" rather than "bad options".
			yield(BinSample{}, err)
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
		cfg, err := s.fleetConfig()
		if err != nil {
			yield(HomeRecord{}, err)
			return
		}
		stopped := false
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

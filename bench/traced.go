package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	powifi "repro"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/eventsim"
	"repro/internal/fleet"
	"repro/internal/harvester"
	"repro/internal/lifecycle"
	"repro/internal/surface"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// The observability pass runs alternated pairs of runs with telemetry
// and tracing on and off: at least minObsPairs, and more while a pass
// over the traced homes is short, up to obsPassS of them or
// maxObsPairs.
const (
	minObsPairs = 3
	maxObsPairs = 10
	obsPassS    = 1.5
)

// tracedPass is one traced child: it times each layer from outside the
// program and records a span around every call.
type tracedPass struct {
	w      workload
	seed   uint64
	homes  int
	dir    string
	t      *tracer
	res    childResult
	stderr io.Writer
}

// tracedRun is the per-layer pass. It re-composes the fleet's per-home
// loop from each layer's public functions on tracedHomes(spec.Homes)
// homes and derives per-layer metrics from the spans' self times. Then
// it runs the fleet engine itself over the same homes, to time what the
// re-composition leaves out (fold, reduce, checkpoints, observability,
// worker scaling) and to check both computed the same homes.
func tracedRun(ctx context.Context, w workload, spec childSpec, stderr io.Writer) childResult {
	homes := tracedHomes(spec.Homes)
	p := &tracedPass{
		w: w, seed: spec.Seed, homes: homes, dir: spec.Dir,
		t:      newTracer(),
		res:    childResult{Attempted: homes, Layers: map[string]sample{}},
		stderr: stderr,
	}
	p.surfaces()
	p.hold()
	rc := p.recompose()
	fleetS, digest := p.fleetPass(ctx, rc)
	p.overheadPass(ctx, rc)
	p.checkpointPass(ctx)
	p.scalingPass(ctx, fleetS, digest)
	pairs := min(max(minObsPairs, int(obsPassS/(2*fleetS))), maxObsPairs)
	p.obsPass(ctx, digest, pairs)
	if spec.TraceOut != "" {
		if err := p.t.writeChrome(spec.TraceOut); err != nil {
			p.problem("%v", err)
		}
	}
	return p.res
}

func (p *tracedPass) set(name string, v float64, n int) {
	m, ok := lookupMetric(name)
	if !ok {
		panic("bench: undeclared metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		p.problem("%s is not finite (%d samples)", name, n)
		return
	}
	p.res.Layers[name] = sample{Value: v, Unit: m.unit, Samples: n}
}

func (p *tracedPass) problem(format string, args ...any) {
	p.res.Problems = append(p.res.Problems, fmt.Sprintf(format, args...))
}

// fail records an error that cost the pass its homes.
func (p *tracedPass) fail(what string, err error) {
	p.res.Failed = p.homes
	p.problem("%s: %v", what, err)
}

// surfaces times the first surface.For of each harvester in this fresh
// process: the build every run pays before its first bin.
func (p *tracedPass) surfaces() {
	c0 := cpuSeconds()
	points := 0
	for _, s := range []struct {
		name string
		h    *harvester.Harvester
	}{
		{"battery_free", harvester.NewBatteryFree()},
		{"battery_charging", harvester.NewBatteryCharging()},
	} {
		i := p.t.begin("surface.build."+s.name, -1, -1, false)
		st := surface.For(s.h).Stats()
		p.t.end(i)
		points += st.OpNodes + st.BootNodes
		p.set("surface.build_s."+s.name, float64(p.t.dur(i))/1e9, 1)
	}
	p.set("surface.build_cpu_s", cpuSeconds()-c0, 1)
	p.set("surface.grid_points", float64(points), 1)
}

// hold times the event kernel alone with the classic hold model: 32
// events pending, the size of one bin's timer set. Each fired event
// schedules its successor a pseudo-random increment later, and
// RunUntil advances the clock in windows, as the deploy sampler does.
func (p *tracedPass) hold() {
	const pending, events, rounds = 32, 1 << 20, 5
	rng := xrand.New(p.seed)
	var incs [1024]time.Duration
	for i := range incs {
		incs[i] = time.Duration(1 + rng.Intn(2000))
	}
	s := eventsim.New()
	fired := 0
	var fire func(any)
	fire = func(any) {
		fired++
		s.AtCtx(s.Now()+incs[fired%len(incs)], fire, nil)
	}
	perEvent := make([]float64, 0, rounds)
	for r := 0; r < rounds; r++ {
		s.Reset()
		fired = 0
		for k := 0; k < pending; k++ {
			s.AtCtx(incs[k], fire, nil)
		}
		i := p.t.begin("eventsim.hold", -1, -1, false)
		for deadline := time.Duration(0); fired < events; {
			deadline += 100 * time.Microsecond
			s.RunUntil(deadline)
		}
		p.t.end(i)
		perEvent = append(perEvent, float64(p.t.dur(i))/float64(fired))
	}
	p.set("eventsim.hold_ns_per_event", median(perEvent), rounds)
}

// interval is the time between two calls of the batch kernel's per-bin
// callback: from returning for bin from to being called for bin to
// (-1: the kernel's return).
type interval struct {
	from, to   int
	start, end int64
}

// homeOut is what the recomposition computed for one home, checked
// against the fleet engine's record of the same home.
type homeOut struct {
	meanCum, meanUW, meanRate float64
	updates                   float64
}

// recomposer replays the fleet's per-home loop (fleet/run.go's
// attemptHome) from the layers' public functions.
type recomposer struct {
	p      *tracedPass
	cfg    fleet.Config
	mixCfg fleet.Config // cfg with the device mix, for the ledger replay's draws
	smp    *deploy.Sampler
	b      deploy.BinBatch
	rw     *trace.Worker
	eval   *core.TempSensorDevice
	devs   [lifecycle.NumKinds]*lifecycle.Device

	rate, netW []float64
	ivs        []interval
	// binEvents holds each bin's kernel events as the flight recorder
	// reports them, -1 until it does.
	binEvents []float64

	out             []homeOut
	bins, simulated int
	escalations     uint64
	// simEvents sums the kernel events of the countedBins simulated
	// bins whose count the recorder reported.
	simEvents   float64
	countedBins int
	// pureNS and pureEvents sum the measured bin-sim spans.
	pureNS, pureEvents float64
	mismatch           int
}

// recomposed carries the recomposition's per-home layer times (ns) and
// results to the fleet passes; visit is nil when the fleet runs no
// ledger.
type recomposed struct {
	synth, visit []float64
	out          []homeOut
}

// recompose runs pass one: each home through synthesis, the batch
// kernel (traced, and untraced in alternating order), an evaluate
// replay with surface counters, and the lifecycle ledger.
func (p *tracedPass) recompose() recomposed {
	r := &recomposer{
		p:    p,
		cfg:  p.w.fleetConfig(p.homes, p.seed),
		smp:  deploy.NewSampler(),
		rw:   trace.NewRecorder().NewWorker(),
		eval: core.NewBatteryFreeTempSensor(),
	}
	r.mixCfg = r.cfg
	r.mixCfg.Population.Devices = sixArchetypes()
	counters := telemetry.NewRun()
	r.eval.Tele = counters.SurfaceCounters()
	for i := 0; i < p.homes; i++ {
		r.home(i)
	}

	t := p.t
	self := t.selfTimes()
	perHome := func(name string) (dur, slf []float64) {
		dur, slf = make([]float64, p.homes), make([]float64, p.homes)
		for i, s := range t.spans {
			if s.Name == name && s.Home >= 0 {
				dur[s.Home] += float64(s.End - s.Start)
				slf[s.Home] += float64(self[i])
			}
		}
		return dur, slf
	}
	us := func(xs []float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x / 1e3
		}
		return out
	}
	synth, _ := perHome("fleet.synth")
	traced, batchSelf := perHome("deploy.batch")
	untraced, _ := perHome("deploy.batch.untraced")
	eval, _ := perHome("core.evaluate")
	visit, _ := perHome("lifecycle.visit")
	home, homeSelf := perHome("home")
	var binSim []float64
	for _, s := range t.spans {
		if s.Name == "deploy.bin_sim" && !s.Estimated {
			binSim = append(binSim, float64(s.End-s.Start)/1e3)
		}
	}

	n := p.homes
	p.set("fleet.synth_us_per_home", median(us(synth)), n)
	p.set("deploy.home_us.p50", percentile(us(untraced), 50), n)
	p.set("deploy.home_us.p90", percentile(us(untraced), 90), n)
	p.set("deploy.bin_sim_us.p50", percentile(binSim, 50), len(binSim))
	p.set("deploy.bin_sim_us.p99", percentile(binSim, 99), len(binSim))
	p.set("deploy.ns_per_event", r.pureNS/r.pureEvents, len(binSim))
	p.set("eventsim.events_per_bin", r.simEvents/float64(r.countedBins), r.countedBins)
	p.set("deploy.coarse.simulated_frac", float64(r.simulated)/float64(r.bins), r.bins)
	p.set("deploy.coarse.escalations_per_home", float64(r.escalations)/float64(n), n)
	p.set("deploy.coarse.proxy_us_per_home", median(us(batchSelf)), n)
	p.set("core.evaluate_ns_per_bin", sum(eval)/float64(r.bins), r.bins)
	hits := counters.Counter(telemetry.CounterSurfaceHits).Value()
	queries := hits + counters.Counter(telemetry.CounterSurfaceExact).Value() +
		counters.Counter(telemetry.CounterSurfaceGuardBand).Value()
	p.set("core.surface_hit_ratio", float64(hits)/float64(queries), int(queries))
	p.set("lifecycle.visit_us_per_home", median(us(visit)), n)
	p.set("bench.trace_overhead_frac", sum(traced)/sum(untraced)-1, n)
	coverage := 1 - sum(homeSelf)/sum(home)
	p.set("bench.trace_coverage", coverage, n)
	if coverage < 0.9 {
		p.problem("layer spans cover %.1f%% of per-home time, want at least 90%%", 100*coverage)
	}
	if r.mismatch > 0 {
		p.problem("evaluate replay disagrees with the batch kernel on %d bins", r.mismatch)
	}

	rc := recomposed{synth: synth, out: r.out}
	if p.w.devices {
		rc.visit = visit
	}
	return rc
}

// home recomposes home i.
func (r *recomposer) home(i int) {
	t := r.p.t
	root := t.begin("home", -1, i, false)

	s := t.begin("fleet.synth", root, i, false)
	h := fleet.SynthesizeHome(r.cfg, i)
	var kind lifecycle.Kind
	if r.p.w.devices {
		kind = fleet.SynthesizeDevice(r.cfg, i)
	}
	t.end(s)
	if !r.p.w.devices {
		kind = fleet.SynthesizeDevice(r.mixCfg, i) // for the ledger replay
	}

	opts := deploy.Options{
		BinWidth:         r.cfg.BinWidth,
		Window:           r.cfg.Window,
		Hours:            r.cfg.Hours,
		SensorDistanceFt: h.SensorFt,
	}
	// Alternate which copy runs first, so neither rides the other's
	// warm caches on every home.
	if i%2 == 0 {
		r.untracedBatch(root, i, h, opts)
		r.tracedBatch(root, i, h, opts)
	} else {
		r.tracedBatch(root, i, h, opts)
		r.untracedBatch(root, i, h, opts)
	}
	n := r.b.Len()
	r.bins += n

	// The evaluate stage alone, replayed over the finished batch. On
	// the coarse tier only simulated bins went through it in the
	// kernel, so only those are compared.
	r.rate, r.netW = grow(r.rate, n), grow(r.netW, n)
	e := t.begin("core.evaluate", root, i, true)
	r.eval.EvaluateBatch(h.SensorFt, r.b.Occupancy, r.rate, r.netW)
	t.end(e)
	for k := 0; k < n; k++ {
		if r.b.Simulated[k] && (r.rate[k] != r.b.SensorRate[k] || r.netW[k] != r.b.NetHarvestedW[k]) {
			r.mismatch++
		}
	}

	// The ledger. Without a device mix the workload's homes carry no
	// device; the six-archetype draw is replayed over the batch so the
	// layer is timed on every workload.
	v := t.begin("lifecycle.visit", root, i, !r.p.w.devices)
	dev := r.device(kind)
	dev.Begin(h.SensorFt, r.cfg.BinWidth)
	dev.VisitBatch(&r.b)
	t.end(v)
	t.end(root)

	// The fleet's per-home fold (fleet/run.go), for the cross-check.
	var cum, uw, rate float64
	for k := 0; k < n; k++ {
		s := r.b.Sample(k)
		cum += s.CumulativePct
		uw += s.BankedHarvestUW()
		rate += s.SensorRate
	}
	r.out = append(r.out, homeOut{
		meanCum: cum / float64(n), meanUW: uw / float64(n), meanRate: rate / float64(n),
		updates: dev.Metrics().Updates,
	})
}

func (r *recomposer) runBatch(h fleet.Home, opts deploy.Options, each func(int) bool) {
	var done bool
	if r.cfg.Coarse {
		done = r.smp.RunBatchCoarse(h.HomeConfig, opts, deploy.CoarseOptions{}, &r.b, each)
	} else {
		done = r.smp.RunBatch(h.HomeConfig, opts, &r.b, each)
	}
	if !done {
		panic("bench: batch kernel stopped without being asked to")
	}
}

func (r *recomposer) untracedBatch(root, i int, h fleet.Home, opts deploy.Options) {
	u := r.p.t.begin("deploy.batch.untraced", root, i, true)
	r.runBatch(h, opts, nil)
	r.p.t.end(u)
}

// tracedBatch runs the batch kernel with a flight recorder and a
// per-bin callback. The gaps between callbacks are the bins' event
// simulations; the recorder's bin-sim events give each window's kernel
// event count. The recorder's ring keeps 64 events, so it is read
// whenever 8 new events have arrived: at most ~53 more can arrive
// before the next callback (a coarse home's fits, guard queries and
// escalations). Only a burst of surface fallbacks in the evaluate stage
// can push a bin's count out first; such a bin is left out of the
// per-event figures.
func (r *recomposer) tracedBatch(root, i int, h fleet.Home, opts deploy.Options) {
	t := r.p.t
	ht := r.rw.StartHome(i, "fleet/home/"+strconv.Itoa(i), 1)
	r.smp.TraceHome(ht)
	defer r.smp.TraceHome(nil)
	nBins := opts.Resolved().NumBins()
	r.binEvents = r.binEvents[:0]
	for k := 0; k < nBins; k++ {
		r.binEvents = append(r.binEvents, -1)
	}
	var seen uint64

	b := t.begin("deploy.batch", root, i, false)
	r.ivs = r.ivs[:0]
	prevBin, prevT := -1, int64(0)
	r.runBatch(h, opts, func(bin int) bool {
		now := t.now()
		if prevBin >= 0 {
			r.ivs = append(r.ivs, interval{from: prevBin, to: bin, start: prevT, end: now})
		}
		if ht.Events()-seen >= 8 {
			d := t.begin("bench.recorder", b, i, false)
			seen = r.collect(ht, seen)
			t.end(d)
		}
		prevBin, prevT = bin, t.now()
		return true
	})
	r.ivs = append(r.ivs, interval{from: prevBin, to: -1, start: prevT, end: t.now()})
	t.end(b)
	d := t.begin("bench.recorder", root, i, false)
	r.collect(ht, seen)
	t.end(d)

	// A gap to a later bin is one bin's simulation and the kernel's
	// per-bin bookkeeping. A gap to an earlier bin (the coarse tier's
	// turn from anchors to escalations) or to the kernel's return also
	// holds the evaluate or proxy stage; its simulation share is
	// estimated from its event count at this home's measured ns/event.
	var homeNS, homeEvents float64
	for _, iv := range r.ivs {
		if ev := r.binEvents[iv.from]; iv.to > iv.from && ev > 0 {
			homeNS += float64(iv.end - iv.start)
			homeEvents += ev
			t.add(span{Name: "deploy.bin_sim", Start: iv.start, End: iv.end, Parent: b, Home: i})
		}
	}
	nsPerEvent := homeNS / homeEvents
	if homeEvents == 0 {
		nsPerEvent = r.pureNS / r.pureEvents
	}
	for _, iv := range r.ivs {
		if ev := r.binEvents[iv.from]; iv.to <= iv.from && ev > 0 && nsPerEvent > 0 {
			est := min(int64(ev*nsPerEvent), iv.end-iv.start)
			t.add(span{Name: "deploy.bin_sim", Start: iv.start, End: iv.start + est, Parent: b, Home: i, Estimated: true})
		}
	}
	r.pureNS += homeNS
	r.pureEvents += homeEvents

	for k := 0; k < r.b.Len(); k++ {
		if !r.b.Simulated[k] {
			continue
		}
		r.simulated++
		if ev := r.binEvents[k]; ev >= 0 {
			r.countedBins++
			r.simEvents += ev
		}
	}
	r.escalations += uint64(ht.Escalations())
}

// collect reads the recorder's events since seen (those the ring still
// holds) and returns the new total.
func (r *recomposer) collect(ht *trace.HomeTrace, seen uint64) uint64 {
	total := ht.Events()
	d := ht.Dump()
	fresh := min(int(total-seen), len(d.Events))
	for _, e := range d.Events[len(d.Events)-fresh:] {
		if e.Kind == trace.EvBinSim.String() {
			r.binEvents[e.Bin] = e.Arg
		}
	}
	return total
}

// device returns a pooled lifecycle device of kind, as the fleet's
// workers pool them.
func (r *recomposer) device(k lifecycle.Kind) *lifecycle.Device {
	if r.devs[k] == nil {
		r.devs[k] = lifecycle.NewDevice(k, lifecycle.Policy{})
	}
	return r.devs[k]
}

func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// fleetPass runs the fleet engine itself, workers=1 and untraced, over
// the recomposed homes: the allocations of its simulate phase, its
// reduce (last Home hook to return), and a home-by-home check that the
// engine and the recomposition computed the same homes. It returns the
// run's seconds and fleet digest.
func (p *tracedPass) fleetPass(ctx context.Context, rc recomposed) (float64, string) {
	cfg := p.w.fleetConfig(p.homes, p.seed)
	cfg.Workers = 1
	var lastHook int64
	recs := make([]fleet.HomeRecord, 0, p.homes)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	i := p.t.begin("fleet.run", -1, -1, false)
	res, err := fleet.RunWith(ctx, cfg, fleet.Hooks{Home: func(r fleet.HomeRecord) bool {
		lastHook = p.t.now()
		recs = append(recs, r)
		return true
	}})
	p.t.end(i)
	runtime.ReadMemStats(&m1)
	if err != nil {
		p.fail("fleet pass", err)
		return 0, ""
	}
	p.set("deploy.allocs_per_bin", float64(m1.Mallocs-m0.Mallocs)/float64(res.TotalBins), int(res.TotalBins))
	p.set("fleet.reduce_ms", float64(p.t.spans[i].End-lastHook)/1e6, 1)

	bad := 0
	for k, rec := range recs {
		o := rc.out[k]
		same := rec.Index == k && rec.MeanCumulativePct == o.meanCum &&
			rec.MeanHarvestUW == o.meanUW && rec.MeanUpdateRateHz == o.meanRate
		if p.w.devices {
			same = same && rec.Device != nil && rec.Device.Updates == o.updates
		}
		if !same {
			bad++
		}
	}
	if bad > 0 || len(recs) != len(rc.out) {
		p.problem("fleet engine and recomposition disagree on %d of %d homes", bad, len(recs))
	}
	sum := res.Summarize()
	digest, err := fleetDigest(&sum)
	if err != nil {
		p.problem("%v", err)
	}
	return float64(p.t.dur(i)) / 1e9, digest
}

// overheadPass runs the fleet with its own trace recorder, which times
// each home and the batch kernel inside it. A home's gap between Home
// hooks, less its kernel time and the synthesis and ledger the
// recomposition timed, is the fleet's own per-home work: the fold, the
// per-home aggregates, reorder and commit (including the recorder's
// commit). Measuring it within one run keeps the pass-to-pass noise of
// a shared host out of a difference this small.
func (p *tracedPass) overheadPass(ctx context.Context, rc recomposed) {
	cfg := p.w.fleetConfig(p.homes, p.seed)
	cfg.Workers = 1
	rec := trace.NewRecorder()
	hooks := make([]int64, 0, p.homes)
	i := p.t.begin("fleet.run.traced", -1, -1, false)
	_, err := fleet.RunWith(ctx, cfg, fleet.Hooks{Trace: rec, Home: func(fleet.HomeRecord) bool {
		hooks = append(hooks, p.t.now())
		return true
	}})
	p.t.end(i)
	if err != nil {
		p.fail("overhead pass", err)
		return
	}
	// The recorder keeps a capped number of spans; homes past the cap
	// have no kernel span and are left out.
	kernel := make([]float64, p.homes)
	for _, s := range rec.Summary().Sched.Spans {
		if s.Name == "bin-batch" && s.Home >= 0 && s.Home < p.homes {
			kernel[s.Home] = s.DurUS * 1e3
		}
	}
	var overhead []float64
	for k := 1; k < len(hooks); k++ {
		if kernel[k] == 0 {
			continue
		}
		own := float64(hooks[k]-hooks[k-1]) - kernel[k] - rc.synth[k]
		if rc.visit != nil {
			own -= rc.visit[k]
		}
		overhead = append(overhead, own/1e3)
	}
	p.set("fleet.overhead_us_per_home", median(overhead), len(overhead))
}

// checkpointPass runs the fleet with a checkpoint written every eighth
// of the homes. A write happens just before the Progress call of the
// home that completes the stride, so the gap that ends there, less
// the median gap, is the write's cost. A device-mix population refuses
// checkpoints, so its homes run without their devices.
func (p *tracedPass) checkpointPass(ctx context.Context) {
	cfg := p.w.fleetConfig(p.homes, p.seed)
	cfg.Workers = 1
	cfg.Population.Devices = lifecycle.Mix{}
	every := max(1, p.homes/8)
	ck := &fleet.Checkpoint{Path: filepath.Join(p.dir, "traced-checkpoint.json"), Every: every}
	var writes, others, sizes []float64
	i := p.t.begin("fleet.run.checkpoint", -1, -1, false)
	last := p.t.now()
	_, err := fleet.RunWith(ctx, cfg, fleet.Hooks{Checkpoint: ck, Progress: func(done, total int) {
		now := p.t.now()
		gap := float64(now - last)
		last = now
		switch {
		case done%every == 0 && done < total:
			writes = append(writes, gap)
			if fi, err := os.Stat(ck.Path); err == nil {
				sizes = append(sizes, float64(fi.Size()))
			}
		case done > 1:
			others = append(others, gap)
		}
	}})
	p.t.end(i)
	if err != nil {
		p.fail("checkpoint pass", err)
		return
	}
	if len(writes) == 0 || len(sizes) == 0 {
		p.problem("checkpoint pass wrote no checkpoint over %d homes", p.homes)
		return
	}
	p.set("fleet.checkpoint_write_ms", (median(writes)-median(others))/1e6, len(writes))
	p.set("fleet.checkpoint_bytes", median(sizes), len(sizes))
}

// scalingPass reruns the fleet pass's homes on two workers. Scaling is
// only measured with at least two CPUs to run them.
func (p *tracedPass) scalingPass(ctx context.Context, oneWorkerS float64, digest string) {
	if procs := runtime.GOMAXPROCS(0); procs < 2 {
		fmt.Fprintf(p.stderr, "bench: not emitting fleet.scaling_eff: GOMAXPROCS=%d, worker scaling needs at least 2\n", procs)
		return
	}
	cfg := p.w.fleetConfig(p.homes, p.seed)
	cfg.Workers = 2
	i := p.t.begin("fleet.run.workers2", -1, -1, false)
	res, err := fleet.RunWith(ctx, cfg, fleet.Hooks{})
	p.t.end(i)
	if err != nil {
		p.fail("scaling pass", err)
		return
	}
	p.set("fleet.scaling_eff", oneWorkerS/(2*float64(p.t.dur(i))/1e9), 1)
	sum := res.Summarize()
	if d, _ := fleetDigest(&sum); d != digest {
		p.problem("fleet digest differs between 1 and 2 workers")
	}
}

// obsPass times observability: alternated pairs of Scenario.Run over the
// traced homes with telemetry and tracing on and off (the overhead is
// the median of the pairs' ratios), and the report write of the
// observed run. The unobserved runs' fleet digest must equal the fleet
// pass's: the scenario options and the engine configuration describe
// the same run.
func (p *tracedPass) obsPass(ctx context.Context, digest string, pairs int) {
	var ratios, writes []float64
	for pair := 0; pair < pairs; pair++ {
		order := []bool{true, false}
		if pair%2 == 1 {
			order = []bool{false, true}
		}
		var on, off float64
		for _, obs := range order {
			sc, err := powifi.NewScenario(p.w.options(p.homes, p.seed, p.dir, obs)...)
			if err != nil {
				p.fail("observability pass", err)
				return
			}
			name := "scenario.run"
			if obs {
				name = "scenario.run.observed"
			}
			i := p.t.begin(name, -1, -1, false)
			rep, err := sc.Run(ctx)
			p.t.end(i)
			if err != nil {
				p.fail("observability pass", err)
				return
			}
			if !obs {
				off = float64(p.t.dur(i))
				if d, _ := fleetDigest(rep.Fleet); d != digest {
					p.problem("scenario and fleet engine fleet digests differ")
				}
				continue
			}
			on = float64(p.t.dur(i))
			j := p.t.begin("report.write", -1, -1, false)
			err = writeReport(rep, filepath.Join(p.dir, "observed-report.json"))
			p.t.end(j)
			if err != nil {
				p.problem("%v", err)
			}
			writes = append(writes, float64(p.t.dur(j))/1e6)
		}
		ratios = append(ratios, on/off)
	}
	p.set("obs.overhead_frac", median(ratios)-1, pairs)
	p.set("obs.report_write_ms", median(writes), len(writes))
}

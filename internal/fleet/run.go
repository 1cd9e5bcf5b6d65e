package fleet

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"repro/internal/deploy"
	"repro/internal/faultinject"
	"repro/internal/harvester"
	"repro/internal/lifecycle"
	"repro/internal/surface"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// samplerPool recycles pooled sampling contexts across fleet runs. A
// Sampler fully re-derives its state from (seed, labels) on every bin,
// so reuse across runs is as output-invisible as reuse across homes.
// No New hook: acquireSampler constructs on empty so pool reuse is an
// observable telemetry diagnostic.
var samplerPool sync.Pool

// acquireSampler takes a pooled sampling context, or builds one when
// the pool is empty, counting either way into the run's scheduling
// diagnostics (nil-safe when telemetry is off).
func acquireSampler(probe *telemetry.Probe) *deploy.Sampler {
	if v := samplerPool.Get(); v != nil {
		probe.Sampler().PoolHit()
		return v.(*deploy.Sampler)
	}
	probe.Sampler().PoolMiss()
	return deploy.NewSampler()
}

// ErrStopped is returned by RunWith when the Home hook ends the run
// early by returning false. It marks a caller-requested stop — the
// streaming consumer broke out of its loop — as opposed to a context
// cancellation, which surfaces as ctx.Err().
var ErrStopped = errors.New("fleet: run stopped by home hook")

// Hooks carries the optional streaming callbacks of RunWith. Both
// hooks observe homes in home-index order regardless of worker count,
// so a streaming consumer sees the exact same sequence at any
// parallelism. Hooks are invoked on the reducing goroutine (the one
// that called RunWith), never concurrently.
type Hooks struct {
	// Progress, if non-nil, is called once per completed home with the
	// number folded so far and the total: (1, n), (2, n), ... (n, n).
	Progress func(done, total int)
	// Home, if non-nil, receives each home's summary record in
	// home-index order. Returning false stops the run: workers drain
	// and exit, and RunWith returns ErrStopped with a nil Result.
	Home func(HomeRecord) bool
	// Telemetry, if non-nil, collects the run's metrics, phase spans
	// and manifest (internal/telemetry). Collection is strictly out of
	// band — no RNG draws, no event-order changes — so the Result is
	// byte-identical with or without it, and its work-counter totals
	// are bit-for-bit identical at any worker count.
	Telemetry *telemetry.Run
	// Checkpoint, if non-nil, enables checkpoint/resume for the run:
	// the reducer's committed home prefix is periodically serialized to
	// Checkpoint.Path, an existing checkpoint of the same configuration
	// is resumed from, and the resumed output is bit-identical to an
	// uninterrupted run at any worker count. See Checkpoint.
	Checkpoint *Checkpoint
	// Faults, if non-nil, arms the deterministic failure-injection
	// registry (internal/faultinject) for this run: home panics and
	// stalls fire keyed by home index, checkpoint write faults keyed by
	// the session's write generation. Reserved for tests and chaos
	// certification; production runs leave it nil (one branch, zero
	// overhead).
	Faults *faultinject.Set
	// Trace, if non-nil, records the run's span tree and per-home
	// flight recorders (internal/trace). Tracing follows Telemetry's
	// out-of-band contract exactly: no RNG draws, no event-order
	// changes, Result byte-identical with or without it, and the
	// summary's deterministic section (event counts, retained rings,
	// escalation reasons) bit-for-bit identical at any worker count
	// because homes commit through the same reorder buffer as every
	// other per-home aggregate.
	Trace *trace.Recorder
}

// worker is one shard's pooled per-worker state: the sampling context,
// the synthesis RNG, and — in lifecycle mode — one pooled device per
// archetype, built lazily and reused across every home the worker runs
// (Device.Begin re-derives all run state, so pooling is output-
// invisible; the lifecycle parity suite pins this).
type worker struct {
	cfg      Config
	smp      *deploy.Sampler
	synthRng *xrand.Rand
	probe    *telemetry.Probe
	fi       *faultinject.Set
	tr       *trace.Worker
	devs     [lifecycle.NumKinds]*lifecycle.Device
	// batch is the worker's reusable struct-of-arrays bin buffer; the
	// batched kernel refills it per home without reallocating.
	batch deploy.BinBatch
	// lifeBins collects the in-flight attempt's per-bin lifecycle
	// observations (the pooled devices' OnBin target). attemptHome hands
	// the slice to the home's homeStats, so the bins are committed with
	// the home or thrown away with a panicking attempt.
	lifeBins []lifecycle.BinStats
	// curHT is the in-flight attempt's flight recorder, stashed on the
	// worker so runHome can reach it across attemptHome's panic/recover
	// boundary. lastKernelNS/lastStallNS are the last attempt's kernel
	// and injected-stall wall times, measured whenever telemetry or
	// tracing observes the run (zero otherwise).
	curHT        *trace.HomeTrace
	lastKernelNS int64
	lastStallNS  int64
}

func newWorker(cfg Config, probe *telemetry.Probe, fi *faultinject.Set, rec *trace.Recorder) *worker {
	w := &worker{
		cfg:      cfg,
		smp:      acquireSampler(probe),
		synthRng: xrand.New(0),
		probe:    probe,
		fi:       fi,
		tr:       rec.NewWorker(),
	}
	// Attach (or, with telemetry off, explicitly detach) the counters on
	// every acquisition, so a pooled sampler can never count into a
	// previous run's metrics.
	w.smp.Instrument(probe.Sampler(), probe.Surface())
	w.smp.TraceHome(nil)
	return w
}

// refresh replaces the worker's sampling context after a panicking
// attempt: the pooled context may hold arbitrary mid-bin state, so it
// is dropped on the floor (never returned to the pool) and a fresh one
// is built for the retry. A Sampler re-derives everything from
// (seed, labels) per bin, so the retry's output is identical to what a
// first-attempt success would have produced.
func (w *worker) refresh() {
	w.smp.Instrument(nil, nil)
	w.smp.TraceHome(nil)
	w.smp = deploy.NewSampler()
	w.smp.Instrument(w.probe.Sampler(), w.probe.Surface())
}

func (w *worker) release() {
	w.smp.Instrument(nil, nil)
	w.smp.TraceHome(nil)
	samplerPool.Put(w.smp)
	// Fold this worker's sketch shard into the run exactly; the error is
	// impossible because every shard shares NewProbe's configuration.
	_ = w.probe.Close()
}

// device returns the worker's pooled device of the given archetype,
// its OnBin hook bound once to the worker's in-flight bin record.
func (w *worker) device(k lifecycle.Kind) *lifecycle.Device {
	if w.devs[k] == nil {
		d := lifecycle.NewDevice(k, lifecycle.Policy{})
		d.Exact = w.cfg.Exact
		d.Tele = w.probe.Lifecycle()
		d.SurfTele = w.probe.Surface()
		d.OnBin = func(b lifecycle.BinStats) { w.lifeBins = append(w.lifeBins, b) }
		w.devs[k] = d
	}
	return w.devs[k]
}

// Run executes the fleet simulation: cfg.Homes independent single-home
// deployments sharded across cfg.Workers workers, streamed into the
// mergeable aggregates of Result. Each home runs its own isolated
// discrete-event kernel (the kernel itself is deliberately single-
// threaded; the fleet layer is where the parallelism lives).
//
// Cancelling ctx stops the run promptly: every worker checks its
// context once per logging bin (never more than one bin's worth of
// work after the cancel), drains, and exits; Run then returns ctx.Err()
// with a nil Result. Partial results are discarded, never silently
// truncated — a Result describes the full configured fleet unless it
// is explicitly marked Partial by a degradation budget (Config.Deadline,
// Config.MaxFailedHomes).
//
// The output is bit-for-bit identical for any worker count: every
// home's summary — its per-bin columns, its scalar means and, with a
// population device mix, its per-bin lifecycle observations and
// time-domain scalars — is committed by Result.addHome in home-index
// order, inline with one worker or through a reorder buffer with
// several, so the order-sensitive Welford reductions always see the
// same sequence and no aggregate lives outside the committed prefix.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	return RunWith(ctx, cfg, Hooks{})
}

// RunWith is Run with streaming hooks: per-home records and progress
// callbacks delivered in home-index order at any worker count. See
// Hooks for the contract.
func RunWith(ctx context.Context, cfg Config, h Hooks) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t := h.Telemetry
	// span opens the named phase in both observers (telemetry and the
	// trace recorder share phase names); either may be nil.
	span := func(name string) func() {
		endT, endR := t.Span(name), h.Trace.Span(name)
		return func() { endT(); endR() }
	}

	// Degradation deadline: a child context bounds the run's wall
	// clock. outer stays distinct so caller cancellation (an error)
	// remains distinguishable from budget expiry (a partial result).
	outer := ctx
	if cfg.Deadline > 0 {
		var cancelDeadline context.CancelFunc
		ctx, cancelDeadline = context.WithTimeout(ctx, cfg.Deadline)
		defer cancelDeadline()
	}

	// Checkpoint/resume setup: restore the reducer's committed prefix
	// from the latest intact checkpoint generation (homes [0, start)
	// are already folded into the returned result) and derive the
	// periodic write cadence.
	ck := h.Checkpoint
	var ckw *ckWriter
	var res *Result
	start := 0
	ckEvery := defaultCheckpointEvery
	if ck != nil {
		if ck.Path == "" {
			return nil, errors.New("fleet: Checkpoint requires a non-empty Path")
		}
		if ck.Every > 0 {
			ckEvery = ck.Every
		}
		if start, res, err = loadCheckpoint(ck, cfg, t); err != nil {
			return nil, err
		}
		ckw = &ckWriter{ck: ck, cfg: cfg, fi: h.Faults, t: t}
	} else {
		res = newResult(cfg)
	}
	// saveOnAbort writes the committed prefix when the run stops early
	// or degrades; with checkpointing off it is a no-op.
	saveOnAbort := func(next int) error {
		if ckw == nil {
			return nil
		}
		return ckw.write(res, next)
	}

	// Telemetry setup. When enabled, the operating-point surfaces the
	// run will query are loaded up front under their own span — decoded
	// from the embedded table, or built for a harvester it lacks. Either
	// is deterministic and process-cached, so warming changes no output,
	// but it keeps the one-time cost out of the simulate span.
	runStart := time.Now() //powifi:walltime-ok telemetry manifest wall time, out of band of the simulation
	var memStart runtime.MemStats
	if t != nil {
		runtime.ReadMemStats(&memStart)
		if !cfg.Exact && surface.Enabled() {
			endWarm := span(telemetry.SpanSurfaceWarmup)
			surface.For(harvester.NewBatteryFree())
			if cfg.Population.Lifecycle() {
				surface.For(harvester.NewBatteryCharging())
			}
			endWarm()
		}
	}
	homesC := t.Counter(telemetry.CounterHomes)
	failC := t.FailureCounters()

	// finish stamps the run manifest and throughput gauges once the
	// result is complete; done is the number of homes simulated this
	// session (a resumed or partial run covers only its own tail).
	finish := func(done int) {
		if t == nil {
			return
		}
		elapsed := time.Since(runStart).Seconds() //powifi:walltime-ok throughput gauge only; never feeds an aggregate
		hashCfg := cfg
		hashCfg.Workers = 0 // invariant across parallelism by contract
		m := telemetry.Manifest{
			Seed:       cfg.Seed,
			ConfigHash: telemetry.HashConfig(hashCfg),
			Workers:    cfg.Workers,
			ElapsedS:   elapsed,
		}
		if elapsed > 0 {
			m.HomesPerSec = float64(done) / elapsed
			t.Gauge(telemetry.GaugeBinsPerSec).Set(float64(res.TotalBins) / elapsed)
		}
		t.SetManifest(m)
		var memEnd runtime.MemStats
		runtime.ReadMemStats(&memEnd)
		if res.TotalBins > 0 {
			t.Gauge(telemetry.GaugeAllocsPerBin).Set(
				float64(memEnd.Mallocs-memStart.Mallocs) / float64(res.TotalBins))
		}
	}

	// deliver folds one home into the result and feeds the hooks; it
	// reports whether the run should continue. With checkpointing on,
	// the committed prefix is written every ckEvery homes and on a Home
	// hook stop, always after the fold — the checkpoint describes
	// exactly the homes the reducer has committed. Exhausted homes
	// (hs.fail) arrive through the same reorder buffer, so the failure
	// policy applies at a deterministic, workers-invariant point of the
	// reduce order.
	deliver := func(hs homeStats) (bool, error) {
		if hs.fail != nil {
			if cfg.Policy.failFast() {
				// Checkpoint the prefix *below* the failed home so a
				// resume re-attempts exactly it.
				err := error(hs.fail)
				if werr := saveOnAbort(hs.idx); werr != nil {
					err = errors.Join(err, werr)
				}
				return false, err
			}
			// Quarantine: the committed prefix advances past the home;
			// it contributes to no aggregate and the Home hook never
			// sees it. The structured error lands in Result.Errors (and
			// in the checkpoint, so a resumed report is identical).
			// The quarantine decision is recorded here, at the
			// reducer's deterministic commit point, before the home's
			// flight recorder folds into the trace.
			hs.tr.Quarantine()
			if hs.tr != nil {
				// Re-snapshot the dump so the error's forensics include
				// the quarantine decision itself.
				hs.fail.Trace = hs.tr.Dump()
			}
			h.Trace.CommitHome(hs.tr, true)
			res.Errors = append(res.Errors, *hs.fail)
			failC.Quarantined()
			if cfg.MaxFailedHomes > 0 && len(res.Errors) > cfg.MaxFailedHomes {
				return false, &partialStop{reason: PartialFailureBudget, committed: hs.idx + 1}
			}
		} else {
			h.Trace.CommitHome(hs.tr, false)
			res.addHome(hs)
			homesC.Inc()
			if h.Home != nil && !h.Home(hs.record()) {
				err := ErrStopped
				if werr := saveOnAbort(hs.idx + 1); werr != nil {
					err = errors.Join(err, werr)
				}
				return false, err
			}
		}
		committed := hs.idx + 1
		if ckw != nil && committed < cfg.Homes && (committed-start)%ckEvery == 0 {
			if err := ckw.write(res, committed); err != nil {
				return false, err
			}
		}
		if h.Progress != nil {
			h.Progress(committed, cfg.Homes)
		}
		return true, nil
	}

	// finishPartial ends the run on a tripped degradation budget:
	// budgets are contracts, not failures, so the caller gets the
	// committed prefix as a Result marked Partial — plus a final,
	// resumable checkpoint — instead of an error.
	finishPartial := func(reason string, committed int) (*Result, error) {
		res.Partial = true
		res.PartialReason = reason
		res.CommittedHomes = committed
		if err := saveOnAbort(committed); err != nil {
			return nil, err
		}
		finish(committed - start)
		return res, nil
	}

	// One ordered-commit loop for every worker count. take(i) yields
	// home i: with one worker it simulates the home inline on this
	// goroutine (no goroutines, no channel handoffs — meaningful on
	// single-core hosts); with more it waits for the home to arrive
	// from the pool through the reorder buffer. Either way deliver
	// commits homes strictly in index order, so the output is identical
	// by construction.
	newW := func() *worker { return newWorker(cfg, t.NewProbe(), h.Faults, h.Trace) }
	endSim := span(telemetry.SpanSimulate)
	var take func(int) (homeStats, bool)
	var stop func()
	if cfg.Workers == 1 {
		w := newW()
		take = func(idx int) (homeStats, bool) { return w.runHome(ctx, idx) }
		stop = w.release
	} else {
		take, stop = shard(ctx, cfg, start, newW)
	}
	committed := start
	var stopErr error
	for committed < cfg.Homes && ctx.Err() == nil {
		hs, ok := take(committed)
		if !ok {
			break // cancelled mid-home; the home is discarded
		}
		cont, err := deliver(hs)
		if !cont {
			stopErr = err
			break
		}
		committed++
	}
	stop()
	endSim()

	// One epilogue. A run whose every home committed is complete, even
	// if the deadline expired after the last commit.
	ps, budget := stopErr.(*partialStop)
	switch {
	case budget:
		return finishPartial(ps.reason, ps.committed)
	case stopErr != nil:
		return nil, stopErr // deliver already wrote the stop checkpoint
	case committed == cfg.Homes:
		finish(cfg.Homes - start)
		if ckw != nil {
			ckw.remove() // a completed run needs no resume point
		}
		return res, nil
	case outer.Err() == nil && cfg.Deadline > 0:
		// The run's own deadline expired, not the caller's context. Homes
		// parked in the reorder buffer beyond the committed prefix are
		// discarded: a partial result, like a checkpoint, describes a
		// contiguous prefix.
		return finishPartial(PartialDeadline, committed)
	}
	err = ctx.Err()
	if werr := saveOnAbort(committed); werr != nil {
		err = errors.Join(err, werr)
	}
	return nil, err
}

// shard runs homes [start, cfg.Homes) on cfg.Workers goroutines, one
// pooled worker each, and hands them back in home-index order: take(i)
// returns home i, parking out-of-order completions in a reorder buffer
// whose size stays near the worker count because homes have comparable
// cost, and reports false once the pool has stopped (cancellation).
// stop winds the pool down and returns only after every worker has
// released its state.
func shard(ctx context.Context, cfg Config, start int, newW func() *worker) (take func(int) (homeStats, bool), stop func()) {
	ctx, cancel := context.WithCancel(ctx)
	jobs := make(chan int)
	// One slot per worker: a finished home need not wait for the
	// reducer's fold before its worker starts the next.
	out := make(chan homeStats, cfg.Workers)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One pooled sampling context per worker: scheduler, channels,
			// router, monitors and traffic sources are built once and reset
			// per bin, so the steady-state hot path stops paying allocator
			// and GC tax. Pooling is output-invisible (see deploy.Sampler).
			w := newW()
			defer w.release()
			for idx := range jobs {
				hs, ok := w.runHome(ctx, idx)
				if !ok {
					return // cancelled mid-home; partial home discarded
				}
				select {
				case out <- hs:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() {
		defer close(jobs)
		for i := start; i < cfg.Homes; i++ {
			select {
			case jobs <- i:
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(out)
	}()

	pending := make(map[int]homeStats, cfg.Workers)
	take = func(idx int) (homeStats, bool) {
		for {
			if hs, ok := pending[idx]; ok {
				delete(pending, idx)
				return hs, true
			}
			hs, ok := <-out
			if !ok {
				return homeStats{}, false
			}
			pending[hs.idx] = hs
		}
	}
	stop = func() {
		cancel()
		for range out { // out closes once every worker has released
		}
	}
	return take, stop
}

// runHome runs one home under the worker's supervisor: a panicking
// attempt is recovered into a structured HomeError, the failure
// policy's retries re-run the home on a fresh (never pooled back)
// sampler, and a home whose attempts are exhausted rides the reorder
// buffer as a failed homeStats so the reducer applies the policy at a
// deterministic, workers-invariant point. ok == false only means
// context cancellation.
func (w *worker) runHome(ctx context.Context, idx int) (homeStats, bool) {
	timed := w.probe != nil || w.tr != nil
	for attempt := 1; ; attempt++ {
		var t0 time.Time
		if timed {
			t0 = time.Now() //powifi:walltime-ok per-home flight-recorder timing, out of band
		}
		hs, ok, ferr := w.attemptHome(ctx, idx, attempt)
		ht := w.curHT
		w.curHT = nil
		if ferr == nil {
			if !ok {
				return hs, false
			}
			hs.tr = ht
			w.tr.EndHome(ht)
			if timed {
				wallNS := time.Since(t0).Nanoseconds() //powifi:walltime-ok probe observation only; never feeds an aggregate
				w.probe.ObserveHomeWall(idx, "fleet/home/"+strconv.Itoa(idx),
					float64(wallNS)/1e6, trace.DominantSpan(wallNS, w.lastKernelNS, w.lastStallNS))
			}
			return hs, true
		}
		ferr.Attempts = attempt
		if attempt > w.cfg.Policy.Retry {
			// Exhausted: the last attempt's flight recorder is the
			// home's forensic payload, on both the structured error and
			// the trace commit.
			w.tr.EndHome(ht)
			ferr.Trace = ht.Dump()
			return homeStats{idx: idx, fail: ferr, tr: ht}, true
		}
		w.probe.Failure().Retry()
		w.tr.EndHome(ht)
		w.refresh()
	}
}

// attemptHome simulates one synthesized home on the worker's pooled
// sampler through the batched kernel: the home's bins land in the
// worker's reusable struct-of-arrays buffer (deploy.RunBatch, or
// RunBatchCoarse on the coarse tier), the scalar summary and the
// per-bin fold columns are derived in one pass over the finished
// batch, and — in lifecycle mode — the pooled lifecycle device walks
// the batch in bin order, its per-bin observations recorded into hs.
// The context is checked once per event-simulated bin; on
// cancellation the home is abandoned mid-batch and attemptHome reports
// ok == false (the home is never committed). A panic anywhere in the
// attempt is recovered into ferr; the partially built hs, lifecycle
// bins included, is discarded by the caller.
func (w *worker) attemptHome(ctx context.Context, idx, attempt int) (hs homeStats, ok bool, ferr *HomeError) {
	defer func() {
		if r := recover(); r != nil {
			ferr = &HomeError{
				Index: idx,
				Label: "fleet/home/" + strconv.Itoa(idx),
				Msg:   fmt.Sprint(r),
				Stack: string(debug.Stack()),
			}
		}
	}()
	w.lastKernelNS, w.lastStallNS = 0, 0
	var ht *trace.HomeTrace
	if w.tr.Enabled() {
		ht = w.tr.StartHome(idx, "fleet/home/"+strconv.Itoa(idx), attempt)
		// Label the goroutine for the attempt so -cpuprofile samples
		// become home-attributable in pprof.
		pprof.SetGoroutineLabels(pprof.WithLabels(ctx,
			pprof.Labels("phase", "simulate", "home", strconv.Itoa(idx))))
	}
	w.curHT = ht
	w.smp.TraceHome(ht)
	if f := w.fi.Hit(faultinject.HomeSlow, idx); f != nil {
		w.probe.Failure().Fault()
		ht.Fault(string(f.Site))
		time.Sleep(f.Delay) //powifi:walltime-ok injected stall: the fault IS a wall-clock delay, recorded out of band
		ns := f.Delay.Nanoseconds()
		w.lastStallNS = ns
		ht.Stall(ns)
	}
	if f := w.fi.Hit(faultinject.HomePanic, idx); f != nil {
		w.probe.Failure().Fault()
		ht.Fault(string(f.Site))
		panic(faultinject.PanicValue{Site: f.Site, Key: idx})
	}
	cfg := w.cfg
	h := synthesizeHome(w.synthRng, cfg, idx)
	var dev *lifecycle.Device
	if cfg.Population.Lifecycle() {
		dev = w.device(synthesizeDevice(w.synthRng, cfg, idx))
		dev.Trace = ht
		dev.Begin(h.SensorFt, cfg.BinWidth)
	}
	opts := deploy.Options{
		BinWidth:         cfg.BinWidth,
		Window:           cfg.Window,
		Hours:            cfg.Hours,
		SensorDistanceFt: h.SensorFt,
		Exact:            cfg.Exact,
	}
	b := &w.batch
	gate := func(int) bool { return ctx.Err() == nil }
	timed := w.probe != nil || ht != nil
	var k0 time.Time
	if timed {
		k0 = time.Now() //powifi:walltime-ok kernel-span timing for the flight recorder, out of band
	}
	var done bool
	if cfg.Coarse {
		done = w.smp.RunBatchCoarse(h.HomeConfig, opts, deploy.CoarseOptions{}, b, gate)
	} else {
		done = w.smp.RunBatch(h.HomeConfig, opts, b, gate)
	}
	if timed {
		ns := time.Since(k0).Nanoseconds() //powifi:walltime-ok probe/trace observation only; never feeds an aggregate
		w.lastKernelNS = ns
		ht.Kernel(ns)
	}
	if !done {
		return homeStats{}, false, nil
	}
	nBins := b.Len()
	ht.SetBins(nBins)
	if nBins == 0 {
		return homeStats{idx: idx, home: h}, true, nil
	}

	// One backing array, sliced into the three per-bin fold columns that
	// ride the reorder buffer to the reducer.
	cols := make([]float64, 3*nBins)
	hs = homeStats{
		idx:     idx,
		home:    h,
		binCum:  cols[:nBins:nBins],
		binUW:   cols[nBins : 2*nBins : 2*nBins],
		binRate: cols[2*nBins:],
	}
	copy(hs.binCum, b.CumulativePct)
	copy(hs.binRate, b.SensorRate)
	for i := range hs.binUW {
		// A silent bin banks nothing; BankedHarvestUW owns the clamp
		// convention the home fold shares.
		hs.binUW[i] = b.Sample(i).BankedHarvestUW()
	}
	if dev != nil {
		w.lifeBins = make([]lifecycle.BinStats, 0, nBins)
		dev.VisitBatch(b)
	}
	hs.means = b.Means()
	// Telemetry: silent bins fold into the shared counter, the home's
	// mean harvest into this worker's private sketch shard.
	w.probe.ObserveHome(uint64(hs.means.SilentBins), hs.means.BankedHarvestUW)
	if dev != nil {
		m := dev.Metrics()
		hs.hasLife = true
		hs.life = lifeHomeStats{
			kind:        m.Kind,
			ttfuS:       m.FirstUpdateS,
			outageFrac:  m.OutageFraction(),
			updates:     m.Updates,
			frames:      float64(m.Frames),
			chargeTimeS: m.TimeToFullS,
			finalSoC:    m.FinalSoC,
			minSoC:      m.MinSoC,
			bins:        w.lifeBins,
		}
		w.lifeBins = nil
	}
	return hs, true, nil
}

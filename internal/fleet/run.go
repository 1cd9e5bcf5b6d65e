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
// No New hook: newWorker constructs on empty so pool reuse is an
// observable scheduling diagnostic.
var samplerPool sync.Pool

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
	// Telemetry, if non-nil, collects the run's metrics and manifest
	// (internal/telemetry), viewing its spans and scheduling diagnostics
	// in Trace or, untraced, in a tally-only recorder. Collection is
	// strictly out of band — no RNG draws, no event-order changes — so
	// the Result is byte-identical with or without it. Its work counters
	// and histograms are folded from each home's observation handle at
	// the reducer's commit point, so they are bit-for-bit identical at
	// any worker count and describe exactly the committed homes.
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
	// Trace, if non-nil, is the run recorder (internal/trace): the span
	// tree, the per-home flight recorders and the scheduling
	// observations Telemetry views. It follows Telemetry's out-of-band
	// contract, and its summary's deterministic section (event counts,
	// retained rings, escalation reasons) is bit-for-bit identical at
	// any worker count: homes commit through the same reorder buffer as
	// every other per-home aggregate.
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
	fi       *faultinject.Set
	// rec is the run recorder, nil when nothing observes; tr opens each
	// home's handle on it. labels sets pprof goroutine labels per home
	// (traced runs).
	rec    *trace.Recorder
	tr     *trace.Worker
	labels bool
	devs   [lifecycle.NumKinds]*lifecycle.Device
	// batch is the worker's reusable struct-of-arrays bin buffer; the
	// batched kernel refills it per home without reallocating.
	batch deploy.BinBatch
	// lifeBins collects the in-flight attempt's per-bin lifecycle
	// observations (the pooled devices' OnBin target). attemptHome hands
	// the slice to the home's homeStats, so the bins are committed with
	// the home or thrown away with a panicking attempt.
	lifeBins []lifecycle.BinStats
	homes    int
}

// newWorker builds a worker on a pooled sampling context, or a new one
// when the pool is empty, recording which into rec.
func newWorker(cfg Config, h Hooks, rec *trace.Recorder) *worker {
	smp, pooled := samplerPool.Get().(*deploy.Sampler)
	rec.ObservePool(pooled)
	if !pooled {
		smp = deploy.NewSampler()
	}
	return &worker{
		cfg:      cfg,
		smp:      smp,
		synthRng: xrand.New(0),
		fi:       h.Faults,
		rec:      rec,
		tr:       rec.NewWorker(),
		labels:   h.Trace != nil,
	}
}

// refresh replaces the worker's sampling context after a panicking
// attempt: the pooled context may hold arbitrary mid-bin state, so it
// is dropped on the floor (never returned to the pool) and a fresh one
// is built for the retry. A Sampler re-derives everything from
// (seed, labels) per bin, so the retry's output is identical to what a
// first-attempt success would have produced.
func (w *worker) refresh() {
	w.smp = deploy.NewSampler()
}

// release returns the sampling context to the pool, detached from the
// run's last home so it can never report into this run again, and
// records the worker's shard occupancy: homes, the homes it completed.
func (w *worker) release() {
	w.smp.TraceHome(nil)
	samplerPool.Put(w.smp)
	w.rec.ObserveShard(w.homes)
}

// device returns the worker's pooled device of the given archetype,
// its OnBin hook bound once to the worker's in-flight bin record.
func (w *worker) device(k lifecycle.Kind) *lifecycle.Device {
	if w.devs[k] == nil {
		d := lifecycle.NewDevice(k, lifecycle.Policy{})
		d.Exact = w.cfg.Exact
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
	// rec is the run recorder, the one store of its spans and
	// scheduling observations: the trace recorder, or telemetry's
	// tally-only one; nil when nothing observes.
	rec := telemetry.Bind(t, h.Trace)

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

	runStart := time.Now() //powifi:walltime-ok telemetry manifest wall time, out of band of the simulation
	var memStart runtime.MemStats
	if t != nil {
		runtime.ReadMemStats(&memStart)
	}
	// An observed run loads the operating-point surfaces it will query
	// up front under their own span — decoded from the embedded table,
	// or built for a harvester it lacks. Either is deterministic and
	// process-cached, so warming changes no output, but it keeps the
	// one-time cost out of the simulate span.
	if rec != nil && !cfg.Exact && surface.Enabled() {
		endWarm := rec.Span(trace.SpanSurfaceWarmup)
		surface.For(harvester.NewBatteryFree())
		if cfg.Population.Lifecycle() {
			surface.For(harvester.NewBatteryCharging())
		}
		endWarm()
	}

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

	// observe is the one commit-point fold of a home's observations:
	// the handle commits once into the run recorder, and its tallies
	// and the home's output become telemetry's work counters and
	// histograms. It runs on the reducing goroutine in home-index
	// order, so the totals are identical at any worker count and a
	// partial run counts exactly its committed homes.
	observe := func(hs homeStats) {
		failed := hs.fail != nil
		rec.CommitHome(hs.tr, failed)
		t.CommitHome(telemetry.Home{
			Tally:        hs.tr.Tally(),
			Failed:       failed,
			Lifecycle:    cfg.Population.Lifecycle(),
			SilentBins:   uint64(hs.means.SilentBins),
			LedgerEvents: uint64(len(hs.life.bins)),
			HarvestUW:    hs.means.BankedHarvestUW,
		})
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
			// observations fold; the dump is re-snapshot so the error's
			// forensics include the decision itself.
			hs.tr.Quarantine()
			hs.fail.Trace = hs.tr.Dump()
			observe(hs)
			res.Errors = append(res.Errors, *hs.fail)
			if cfg.MaxFailedHomes > 0 && len(res.Errors) > cfg.MaxFailedHomes {
				return false, &partialStop{reason: PartialFailureBudget, committed: hs.idx + 1}
			}
		} else {
			observe(hs)
			res.addHome(hs)
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
	newW := func() *worker { return newWorker(cfg, h, rec) }
	endSim := rec.Span(trace.SpanSimulate)
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
			// Build the worker here, not on the reducing goroutine: with
			// every worker's state allocated there, the two-worker exact
			// sweep used ~70% more CPU on a 2-vCPU host (likely workers
			// sharing cache lines).
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
// deterministic, workers-invariant point. The home keeps one
// observation handle across its attempts (HomeTrace.Retry). ok ==
// false only means context cancellation.
func (w *worker) runHome(ctx context.Context, idx int) (homeStats, bool) {
	var ht *trace.HomeTrace
	if w.tr != nil {
		ht = w.tr.StartHome(idx, homeLabel(idx), 1)
	}
	if w.labels {
		// Label the goroutine for the home so -cpuprofile samples
		// become home-attributable in pprof.
		pprof.SetGoroutineLabels(pprof.WithLabels(ctx,
			pprof.Labels("phase", "simulate", "home", strconv.Itoa(idx))))
	}
	for attempt := 1; ; attempt++ {
		hs, ok, ferr := w.attemptHome(ctx, idx, ht)
		if ferr == nil && !ok {
			return hs, false
		}
		w.tr.EndHome(ht)
		if ferr == nil {
			hs.tr = ht
			w.homes++
			return hs, true
		}
		ferr.Attempts = attempt
		if attempt > w.cfg.Policy.Retry {
			// Exhausted: the last attempt's flight recorder is the
			// home's forensic payload, on both the structured error and
			// the trace commit.
			ferr.Trace = ht.Dump()
			return homeStats{idx: idx, fail: ferr, tr: ht}, true
		}
		ht.Retry()
		w.refresh()
	}
}

// homeLabel is home idx's RNG stream label, which also names it in
// errors and traces.
func homeLabel(idx int) string { return "fleet/home/" + strconv.Itoa(idx) }

// attemptHome simulates one synthesized home on the worker's pooled
// sampler through the batched kernel, reporting into the home's
// observation handle ht: the home's bins land in the worker's reusable
// struct-of-arrays buffer (deploy.RunBatch, or RunBatchCoarse on the
// coarse tier), the scalar summary and the per-bin fold columns are
// derived in one pass over the finished batch, and — in lifecycle
// mode — the pooled lifecycle device walks the batch in bin order, its
// per-bin observations recorded into hs. The context is checked once
// per event-simulated bin; on cancellation the home is abandoned
// mid-batch and attemptHome reports ok == false (the home is never
// committed). A panic anywhere in the attempt is recovered into ferr;
// the partially built hs, lifecycle bins included, is discarded by the
// caller.
func (w *worker) attemptHome(ctx context.Context, idx int, ht *trace.HomeTrace) (hs homeStats, ok bool, ferr *HomeError) {
	defer func() {
		if r := recover(); r != nil {
			ferr = &HomeError{
				Index: idx,
				Label: homeLabel(idx),
				Msg:   fmt.Sprint(r),
				Stack: string(debug.Stack()),
			}
		}
	}()
	w.smp.TraceHome(ht)
	if f := w.fi.Hit(faultinject.HomeSlow, idx); f != nil {
		ht.Fault(string(f.Site))
		time.Sleep(f.Delay) //powifi:walltime-ok injected stall: the fault IS a wall-clock delay, recorded out of band
		ht.Stall(f.Delay.Nanoseconds())
	}
	if f := w.fi.Hit(faultinject.HomePanic, idx); f != nil {
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
	ht.BeginKernel()
	var done bool
	if cfg.Coarse {
		done = w.smp.RunBatchCoarse(h.HomeConfig, opts, deploy.CoarseOptions{}, b, gate)
	} else {
		done = w.smp.RunBatch(h.HomeConfig, opts, b, gate)
	}
	ht.EndKernel()
	if !done {
		return homeStats{}, false, nil
	}
	nBins := b.Len() // at least one: Config validation rejects shorter runs

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

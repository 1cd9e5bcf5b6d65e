package fleet

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/deploy"
	"repro/internal/faultinject"
	"repro/internal/harvester"
	"repro/internal/lifecycle"
	"repro/internal/profiling"
	"repro/internal/surface"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// slotsPerWorker sizes a sharded run's ring (see shard): the homes each
// worker may have in flight or finished ahead of the committed prefix.
// Each doubling about halves how often workers wait behind a slow home;
// 8 covers the 6–8 homes one slow exact-sweep home let a worker run ahead.
const slotsPerWorker = 8

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
	// any worker count: homes commit in home-index order like every
	// other per-home aggregate. Tracing does not decide pprof labels:
	// homes carry them while a CPU profile records, traced or not
	// (profiling.Recording).
	Trace *trace.Recorder
}

// worker is one shard's per-worker state: the sampling context, the
// synthesis RNG, and — in lifecycle mode — one pooled device per
// archetype, built lazily and reused across every home the worker runs
// (Device.Begin re-derives all run state, so pooling is output-
// invisible; the lifecycle parity suite pins this).
type worker struct {
	cfg      Config
	smp      *deploy.Sampler
	synthRng *xrand.Rand
	fi       *faultinject.Set
	// rec is the run recorder, nil when nothing observes; tr opens each
	// home's handle on it.
	rec  *trace.Recorder
	tr   *trace.Worker
	devs [lifecycle.NumKinds]*lifecycle.Device
	// batch is the worker's reusable struct-of-arrays bin buffer; the
	// batched kernel refills it per home without reallocating.
	batch deploy.BinBatch
	// lifeBins collects the in-flight attempt's per-bin lifecycle
	// observations (the pooled devices' OnBin target). attemptHome hands
	// the slice to the home's homeStats, so the bins are committed with
	// the home or thrown away with a panicking attempt.
	lifeBins []lifecycle.BinStats
	// homes counts the homes the worker completed; waits the times it
	// found the next home's slot storage not yet returned (see shard).
	homes, waits int
}

// homeBufs is the storage a home's result borrows for its trip to the
// reducer: the per-bin column array, the lifecycle ledger's bins and, in
// observed runs, the observation handle. The zero homeBufs is valid:
// the home allocates what it lacks.
type homeBufs struct {
	cols []float64
	bins []lifecycle.BinStats
	tr   *trace.HomeTrace
}

// refresh replaces the worker's sampling context, which a panicking
// attempt may have left mid-bin, for the retry. A Sampler re-derives
// everything from (seed, labels) per bin, so the retry's output is
// identical to what a first-attempt success would have produced.
func (w *worker) refresh() {
	w.smp = deploy.NewSampler()
}

// release records the worker's shard occupancy and slot waits.
func (w *worker) release() {
	w.rec.ObserveShard(w.homes, w.waits)
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
// packet-level simulation (deliberately single-threaded; the fleet
// layer is where the parallelism lives).
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
// order, inline with one worker or through a bounded ring of slots with
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
	if rec != nil && !cfg.Exact {
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
	// partial run counts exactly its committed homes. It returns the
	// handle the recorder released, for recycling.
	observe := func(hs homeStats) *trace.HomeTrace {
		failed := hs.fail != nil
		released := rec.CommitHome(hs.tr, failed)
		t.CommitHome(telemetry.Home{
			Tally:        hs.tr.Tally(),
			Failed:       failed,
			Lifecycle:    cfg.Population.Lifecycle(),
			SilentBins:   uint64(hs.means.SilentBins),
			LedgerEvents: uint64(len(hs.life.bins)),
			HarvestUW:    hs.means.BankedHarvestUW,
		})
		return released
	}

	// One ordered-commit loop for every worker count. take(i) yields
	// home i, simulated inline on this goroutine with one worker
	// (meaningful on single-core hosts) or from its slot in shard's ring.
	// deliver commits homes strictly in index order, so the output is
	// identical by construction, and gives each home's storage back.
	endSim := rec.Span(trace.SpanSimulate)
	newW := func() *worker {
		return &worker{
			cfg:      cfg,
			smp:      deploy.NewSampler(),
			synthRng: xrand.New(0),
			fi:       h.Faults,
			rec:      rec,
			tr:       rec.NewWorker(),
		}
	}
	var take func(int) (homeStats, bool)
	var give func(int, homeBufs)
	var stop func()
	if cfg.Workers == 1 {
		w := newW()
		var spare homeBufs
		take = func(idx int) (homeStats, bool) { return w.runHome(ctx, idx, spare) }
		give = func(_ int, bufs homeBufs) { spare = bufs }
		stop = w.release
	} else {
		take, give, stop = shard(ctx, cfg, start, newW)
	}

	// deliver folds one home into the result and feeds the hooks; it
	// reports whether the run should continue. With checkpointing on,
	// the committed prefix is written every ckEvery homes and on a Home
	// hook stop, always after the fold — the checkpoint describes
	// exactly the homes the reducer has committed. Exhausted homes
	// (hs.fail) arrive in the same order, so the failure policy applies
	// at a deterministic, workers-invariant point of the reduce order. A
	// home that continues the run hands its storage back as deliver's
	// last step; a sharded run's next home in that slot waits for it.
	deliver := func(hs homeStats) (bool, error) {
		var released *trace.HomeTrace
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
			released = observe(hs)
			res.Errors = append(res.Errors, *hs.fail)
			if cfg.MaxFailedHomes > 0 && len(res.Errors) > cfg.MaxFailedHomes {
				return false, &partialStop{reason: PartialFailureBudget, committed: hs.idx + 1}
			}
		} else {
			released = observe(hs)
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
		// Every reader of the home's storage has run: addHome and the
		// archetype fold read the columns and ledger bins, observe the
		// handle and len(life.bins). The Home hook's HomeRecord copies
		// scalars only, and a checkpoint serializes the Result only. So
		// reuse cannot reach any output.
		give(hs.idx, homeBufs{cols: hs.cols, bins: hs.life.bins, tr: released})
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
		// finished beyond the committed prefix are discarded: a partial
		// result, like a checkpoint, describes a contiguous prefix.
		return finishPartial(PartialDeadline, committed)
	}
	err = ctx.Err()
	if werr := saveOnAbort(committed); werr != nil {
		err = errors.Join(err, werr)
	}
	return nil, err
}

// shard runs homes [start, cfg.Homes) on cfg.Workers goroutines through
// a ring of slotsPerWorker × Workers slots. Home i runs in slot
// i mod len(ring): the slot's storage reaches the workers as home i's
// ticket on free once home i − len(ring) has committed (give), and the
// slot's done channel holds the finished home until take(i). free is
// FIFO, so homes start in index order without a lock, none starts
// len(ring) or more past the committed prefix, and memory is O(workers)
// however slow one home is. take reports false once the run is
// cancelled; stop returns once every worker has released.
func shard(ctx context.Context, cfg Config, start int, newW func() *worker) (take func(int) (homeStats, bool), give func(int, homeBufs), stop func()) {
	ctx, cancel := context.WithCancel(ctx)
	type ticket struct {
		idx  int
		bufs homeBufs
	}
	ring := make([]chan homeStats, slotsPerWorker*cfg.Workers)
	free := make(chan ticket, len(ring)) // a ticket per slot at most
	// issue hands home idx its slot's storage; free closes after the last
	// home's, so a worker with nothing left to run exits at once.
	issue := func(idx int, bufs homeBufs) {
		if idx < cfg.Homes {
			free <- ticket{idx, bufs}
			if idx == cfg.Homes-1 {
				close(free)
			}
		}
	}
	for i := range ring {
		ring[i] = make(chan homeStats, 1)
		issue(start+i, homeBufs{})
	}

	var wg sync.WaitGroup
	for range cfg.Workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One sampling context per worker: scheduler, channels,
			// router, monitors and traffic sources are built once and reset
			// per bin, so the steady-state hot path stops paying allocator
			// and GC tax. Reuse is output-invisible (see deploy.Sampler).
			// Build the worker here, not on the reducing goroutine: with
			// every worker's state allocated there, the two-worker exact
			// sweep used ~70% more CPU on a 2-vCPU host (likely workers
			// sharing cache lines).
			w := newW()
			defer w.release()
			for {
				var t ticket
				var ok bool
				select {
				case t, ok = <-free:
				default:
					w.waits++
					select {
					case t, ok = <-free:
					case <-ctx.Done():
						return
					}
				}
				if !ok {
					return // every home has been handed out
				}
				hs, ok := w.runHome(ctx, t.idx, t.bufs)
				if !ok {
					return // cancelled mid-home; partial home discarded
				}
				ring[t.idx%len(ring)] <- hs // empty: home idx−len(ring) was taken
			}
		}()
	}

	take = func(idx int) (homeStats, bool) {
		select {
		case hs := <-ring[idx%len(ring)]:
			return hs, true
		case <-ctx.Done():
			return homeStats{}, false
		}
	}
	give = func(idx int, bufs homeBufs) { issue(idx+len(ring), bufs) }
	stop = func() {
		cancel()
		wg.Wait()
	}
	return take, give, stop
}

// runHome runs one home on bufs, the storage its slot handed it,
// under the worker's supervisor: a panicking attempt is recovered into
// a structured HomeError, the failure policy's retries re-run the home
// on a fresh sampler, and a home whose attempts are exhausted goes to
// the reducer as a failed homeStats so the policy applies at a
// deterministic, workers-invariant point. The home keeps one
// observation handle across its attempts (HomeTrace.Retry); a failed
// attempt's other storage is dropped. ok == false only means context
// cancellation.
func (w *worker) runHome(ctx context.Context, idx int, bufs homeBufs) (homeStats, bool) {
	if profiling.Recording() {
		// Label the goroutine for the home so the CPU profile cuts by
		// home, and give it back the context's labels when the home
		// returns (pprof.Do's scope). Without a profile nothing is
		// labelled, so a home costs no label allocations.
		defer pprof.SetGoroutineLabels(ctx)
		pprof.SetGoroutineLabels(pprof.WithLabels(ctx,
			pprof.Labels("phase", "simulate", "home", strconv.Itoa(idx))))
	}
	ht := w.tr.OpenHome(bufs.tr, idx, homeStem)
	for attempt := 1; ; attempt++ {
		hs, ok, ferr := w.attemptHome(ctx, idx, ht, bufs)
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
		bufs = homeBufs{}
	}
}

// homeStem prefixes a home's index in its RNG stream label
// ("fleet/home/<index>"), which also names the home in errors and
// traces.
const homeStem = "fleet/home/"

// attemptHome simulates one synthesized home on the worker's pooled
// sampler through the batched kernel, reporting into the home's
// observation handle ht: the home's bins land in the worker's reusable
// struct-of-arrays buffer (deploy.RunBatch, or RunBatchCoarse on the
// coarse tier), the scalar summary and the per-bin fold columns are
// derived in one pass over the finished batch, and — in lifecycle
// mode — the pooled lifecycle device walks the batch in bin order, its
// per-bin observations recorded into hs. The columns and ledger bins
// reuse bufs' arrays when they are large enough. The context is checked
// once per event-simulated bin; on cancellation the home is abandoned
// mid-batch, or mid-stall under an injected home.slow fault, and
// attemptHome reports ok == false (the home is never committed). A
// panic anywhere in the attempt is recovered into ferr; the partially
// built hs, lifecycle bins included, is discarded by the caller.
func (w *worker) attemptHome(ctx context.Context, idx int, ht *trace.HomeTrace, bufs homeBufs) (hs homeStats, ok bool, ferr *HomeError) {
	defer func() {
		if r := recover(); r != nil {
			ferr = &HomeError{
				Index: idx,
				Label: homeStem + strconv.Itoa(idx),
				Msg:   fmt.Sprint(r),
				Stack: string(debug.Stack()),
			}
		}
	}()
	w.smp.TraceHome(ht)
	if f := w.fi.Hit(faultinject.HomeSlow, idx); f != nil {
		ht.Fault(string(f.Site))
		stall := time.NewTimer(f.Delay) //powifi:walltime-ok injected stall: the fault IS a wall-clock delay, recorded out of band
		select {
		case <-stall.C:
		case <-ctx.Done():
			stall.Stop()
			return homeStats{}, false, nil
		}
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
	// ride to the reducer; every element is written
	// below, so a recycled array carries nothing over.
	hs = homeStats{
		idx:  idx,
		home: h,
		cols: slices.Grow(bufs.cols[:0], 3*nBins)[:3*nBins],
	}
	cum, uw, rate := hs.columns()
	copy(cum, b.CumulativePct)
	copy(rate, b.SensorRate)
	for i := range uw {
		// A silent bin banks nothing; BankedHarvestUW owns the clamp
		// convention the home fold shares.
		uw[i] = b.Sample(i).BankedHarvestUW()
	}
	if dev != nil {
		w.lifeBins = slices.Grow(bufs.bins[:0], nBins)
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

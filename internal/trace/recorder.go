package trace

import (
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/stats"
)

// maxSpans caps the home-span stream so a million-home sweep cannot
// hold every home span in memory; spans beyond the cap are counted,
// never silently dropped (SchedSummary.SpansDropped). The run and phase
// spans are kept apart and never count against the cap.
const maxSpans = 20000

// Scheduling sketch resolutions: per-home wall times of realistic
// sweeps sit well under a minute, and a worker shard runs at most a few
// tens of thousands of homes.
const (
	wallHiMS   = 60_000
	wallMSBins = 1200

	shardHomesHi   = 1 << 16
	shardHomesBins = 256
)

// Phase span names, in the order a fleet run closes them. The root run
// span wraps the whole fleet run and is the trace's alone: telemetry's
// span list leaves it out.
const (
	SpanSurfaceWarmup = "surface_warmup"
	SpanSimulate      = "simulate"
	SpanRun           = "run"
	SpanReportWrite   = "report_write"
)

// Span is one completed span. Start is the wall offset from the
// recorder epoch; TID is 0 for the run and phase spans and the worker's
// id for worker/home/bin-batch spans.
type Span struct {
	Name    string
	TID     int
	Home    int // home index, -1 for non-home spans
	StartNS int64
	DurNS   int64
	CPUS    float64 // process CPU over the span; run/phase spans only
}

// Recorder is one run's recorder: the one store of its spans and
// scheduling observations (which a bound telemetry collector views),
// its per-worker handles, and the deterministic per-home aggregates
// committed through the fleet's reorder buffer. A nil *Recorder is the
// disabled state — every method (and every handle it returns) is
// nil-receiver safe. A *Recorder is safe for concurrent use by the
// run's workers.
type Recorder struct {
	epoch   time.Time
	ringCap int // zero on a tally-only recorder
	topK    int

	mu           sync.Mutex
	spans        []Span // home-span stream, capped at maxSpans
	spansDropped uint64
	workers      int

	// Deterministic aggregates, written only by CommitHome on the
	// reducing goroutine (the mutex still guards them so a mid-run
	// Summary is safe).
	homes  int
	events uint64
	esc    [numEscReasons]uint64
	failed []*HomeTrace // retained: exhausted homes, commit order
	topEsc []*HomeTrace // retained: top-K by escalations, desc, idx asc

	// Scheduling aggregates.
	sched Sched
}

// NewRecorder returns an enabled recorder with the default ring and
// retention configuration.
func NewRecorder() *Recorder {
	return &Recorder{
		epoch:   time.Now(),
		ringCap: DefaultRingCap,
		topK:    DefaultTopK,
		sched: Sched{
			HomeWallMS: stats.NewSketch(0, wallHiMS, wallMSBins),
			ShardHomes: stats.NewSketch(0, shardHomesHi, shardHomesBins),
		},
	}
}

// NewTallyRecorder returns the recorder of a run that collects
// telemetry without tracing: phase spans and scheduling observations,
// but no flight-recorder rings and no home spans.
func NewTallyRecorder() *Recorder {
	r := NewRecorder()
	r.ringCap = 0
	return r
}

// now returns the wall offset from the recorder epoch in ns.
func (r *Recorder) now() int64 { return time.Since(r.epoch).Nanoseconds() }

// addSpan appends to the home-span stream, counting drops beyond the
// cap.
func (r *Recorder) addSpan(s Span) {
	r.mu.Lock()
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, s)
	} else {
		r.spansDropped++
	}
	r.mu.Unlock()
}

// Span starts a run or phase span (tid 0) and returns its closer: wall
// time from the call to the closer, plus the process's CPU time
// (user+system, all threads) consumed in between. Phase spans append in
// completion order, outside the home-span cap. On a nil Recorder the
// closer is a no-op.
func (r *Recorder) Span(name string) func() {
	if r == nil {
		return func() {}
	}
	w0, c0 := r.now(), ProcessCPUSeconds()
	return func() {
		sp := Span{Name: name, Home: -1, StartNS: w0, DurNS: r.now() - w0, CPUS: ProcessCPUSeconds() - c0}
		r.mu.Lock()
		r.sched.Phases = append(r.sched.Phases, sp)
		r.mu.Unlock()
	}
}

// ObservePool records one sampler-pool acquire: a hit when a pooled
// sampling context was reused. Safe on a nil Recorder.
func (r *Recorder) ObservePool(hit bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if hit {
		r.sched.PoolHits++
	} else {
		r.sched.PoolMisses++
	}
	r.mu.Unlock()
}

// ObserveShard records how many homes one worker shard ran. Safe on a
// nil Recorder.
func (r *Recorder) ObserveShard(homes int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.sched.ShardHomes.Add(float64(homes))
	r.mu.Unlock()
}

// Worker is one fleet worker's handle factory: it opens its homes'
// handles on the recorder's clock and the worker's thread id. A nil
// *Worker ignores every call.
type Worker struct {
	rec *Recorder
	tid int
}

// NewWorker registers a worker handle; nil on a nil Recorder.
func (r *Recorder) NewWorker() *Worker {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.workers++
	return &Worker{rec: r, tid: r.workers}
}

// StartHome opens a home's handle at the given attempt; nil on a nil
// Worker. Later attempts of the same home reuse it through
// HomeTrace.Retry.
func (w *Worker) StartHome(idx int, label string, attempt int) *HomeTrace {
	if w == nil {
		return nil
	}
	ht := &HomeTrace{w: w, idx: idx, label: label, ringCap: w.rec.ringCap}
	ht.begin(attempt)
	return ht
}

// EndHome closes a home attempt: it stamps the duration and, unless the
// recorder is tally-only, appends the home span (plus stall and
// bin-batch child spans when present) to the home-span stream. Safe on
// nil Worker or nil HomeTrace.
//
//powifi:noalloc
func (w *Worker) EndHome(ht *HomeTrace) {
	if w == nil || ht == nil {
		return
	}
	r := w.rec
	ht.durNS = r.now() - ht.startNS
	if r.ringCap == 0 {
		return
	}
	r.addSpan(Span{Name: "home", TID: w.tid, Home: ht.idx, StartNS: ht.startNS, DurNS: ht.durNS})
	if ht.stallNS > 0 {
		r.addSpan(Span{Name: "stall", TID: w.tid, Home: ht.idx, StartNS: ht.startNS, DurNS: ht.stallNS})
	}
	if ht.kernelNS > 0 {
		r.addSpan(Span{Name: "bin-batch", TID: w.tid, Home: ht.idx,
			StartNS: ht.startNS + ht.stallNS, DurNS: ht.kernelNS})
	}
}

// CommitHome folds one home's handle into the recorder: its events,
// escalations and retention into the deterministic aggregates, its wall
// time into the per-home wall sketch and the slowest-homes table. It is
// called on the reducing goroutine in home-index order — the same
// commit point as every other per-home aggregate — so the deterministic
// aggregates are bit-for-bit identical at any worker count. failed
// marks a home whose attempts were exhausted; its ring is always
// retained. Safe on nil Recorder or nil HomeTrace.
//
//powifi:noalloc
func (r *Recorder) CommitHome(ht *HomeTrace, failed bool) {
	if r == nil || ht == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.homes++
	r.events += ht.total
	for i, n := range ht.esc {
		r.esc[i] += uint64(n)
	}
	if failed {
		r.failed = append(r.failed, ht)
	} else if ht.escTotal > 0 {
		r.topEsc = InsertTop(r.topEsc, ht, r.topK, func(a, b *HomeTrace) bool {
			if a.escTotal != b.escTotal {
				return a.escTotal > b.escTotal
			}
			return a.idx < b.idx
		})
	}
	slow := SlowHome{Index: ht.idx, Label: ht.label, WallMS: float64(ht.durNS) / 1e6,
		DominantSpan: DominantSpan(ht.durNS, ht.kernelNS, ht.stallNS)}
	r.sched.HomeWallMS.Add(slow.WallMS)
	r.sched.SlowestHomes = InsertTop(r.sched.SlowestHomes, slow, r.topK, SlowHome.Slower)
}

// SlowHome is one entry in the slowest-homes table: the trace summary's
// sched.slowest_homes, which telemetry's slow_homes views.
type SlowHome struct {
	Index int    `json:"index"`
	Label string `json:"label"`
	// WallMS is the home's simulate wall time; DominantSpan names where
	// it went ("bin-batch" for the event kernel, "stall" for injected
	// stalls, "other" for the residual).
	WallMS       float64 `json:"wall_ms"`
	DominantSpan string  `json:"dominant_span"`
}

// Slower orders the slowest-homes table: longer wall time first, ties
// to the lower home index.
func (s SlowHome) Slower(o SlowHome) bool {
	if s.WallMS != o.WallMS {
		return s.WallMS > o.WallMS
	}
	return s.Index < o.Index
}

// InsertTop inserts x into top, a slice kept sorted under less (best
// first) and bounded at k entries, dropping the weakest entry past k.
// It maintains the recorder's bounded tables: the slowest homes and the
// most-escalated homes.
func InsertTop[T any](top []T, x T, k int, less func(a, b T) bool) []T {
	i := sort.Search(len(top), func(i int) bool { return less(x, top[i]) })
	if i >= k {
		return top
	}
	var zero T
	top = append(top, zero)
	copy(top[i+1:], top[i:])
	top[i] = x
	if len(top) > k {
		top = top[:k]
	}
	return top
}

// Sched holds a recorder's run-scoped scheduling observations: the
// store a bound telemetry collector views for its spans, sched
// counters, scheduling histograms and slowest homes.
type Sched struct {
	// Phases are the run and phase spans in completion order.
	Phases []Span
	// HomeWallMS and ShardHomes sketch the per-home wall time (ms) and
	// the homes each worker shard ran.
	HomeWallMS, ShardHomes *stats.Sketch
	// SlowestHomes is the slowest-homes table, slowest first.
	SlowestHomes []SlowHome
	// PoolHits and PoolMisses count sampler-pool acquires by outcome.
	PoolHits, PoolMisses uint64
}

// Sched copies the recorder's scheduling observations; the zero Sched
// on a nil Recorder.
func (r *Recorder) Sched() Sched {
	if r == nil {
		return Sched{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.sched
	s.Phases = slices.Clone(s.Phases)
	s.HomeWallMS, s.ShardHomes = cloneSketch(s.HomeWallMS), cloneSketch(s.ShardHomes)
	s.SlowestHomes = append([]SlowHome(nil), s.SlowestHomes...)
	return s
}

func cloneSketch(s *stats.Sketch) *stats.Sketch {
	c := stats.NewSketch(s.Lo, s.Hi, len(s.Counts))
	c.Merge(s)
	return c
}

// Summary is the exported view of a Recorder — the Report's "trace"
// JSON section. Everything outside Sched is deterministic: committed in
// home-index order and derived only from the simulation, so it is
// bit-for-bit identical at any worker count. Sched quarantines the
// scheduling observations (raw spans, wall quantiles, slowest homes),
// which legitimately vary run to run and across parallelism.
type Summary struct {
	// HomesTraced counts committed homes; Events the flight-recorder
	// events they produced.
	HomesTraced int    `json:"homes_traced"`
	Events      uint64 `json:"events"`
	// EscalatedBins totals coarse-tier escalations;
	// EscalationReasons breaks them down by machine-readable reason
	// code (consensus-split, guard-disagree, occ-fit-unstable).
	EscalatedBins     uint64            `json:"escalated_bins,omitempty"`
	EscalationReasons map[string]uint64 `json:"escalation_reasons,omitempty"`
	// Retained lists the homes whose full flight-recorder rings were
	// kept — every failed home plus the top-K most-escalated — in
	// home-index order.
	Retained []HomeSummary `json:"retained,omitempty"`
	// Sched holds the scheduling observations; never compare it across
	// worker counts.
	Sched *SchedSummary `json:"sched,omitempty"`
}

// HomeSummary is one retained home's deterministic forensics.
type HomeSummary struct {
	Index int    `json:"index"`
	Label string `json:"label"`
	// Retained says why the ring was kept: "failed" or "escalations".
	Retained string `json:"retained"`
	// Events counts all observed events; Ring holds the newest RingCap
	// of them oldest-first; Dropped counts the overwritten remainder.
	Events  uint64        `json:"events"`
	Ring    []EventRecord `json:"ring,omitempty"`
	Dropped uint64        `json:"dropped,omitempty"`
	// EscalationReasons is the home's own per-reason breakdown.
	EscalationReasons map[string]uint64 `json:"escalation_reasons,omitempty"`
}

// SchedSummary is the scheduling section of a trace summary.
type SchedSummary struct {
	// Spans lists the run and phase spans in completion order, then
	// the home-span stream in scheduling order (capped at maxSpans;
	// SpansDropped counts the overflow).
	Spans        []SpanRecord `json:"spans,omitempty"`
	SpansDropped uint64       `json:"spans_dropped,omitempty"`
	// HomeWallMS summarizes the per-home wall-time distribution.
	HomeWallMS WallQuantiles `json:"home_wall_ms"`
	// SlowestHomes lists the top-K slowest homes with their dominant
	// span.
	SlowestHomes []SlowHome `json:"slowest_homes,omitempty"`
}

// SpanRecord is one serialized span.
type SpanRecord struct {
	Name    string  `json:"name"`
	TID     int     `json:"tid"`
	Home    int     `json:"home,omitempty"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
	CPUS    float64 `json:"cpu_s,omitempty"`
}

// WallQuantiles summarizes the per-home wall distribution.
type WallQuantiles struct {
	N   uint64  `json:"n"`
	P50 float64 `json:"p50"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

// retained returns the deterministic retention set in home-index order:
// every failed home plus the top-K most-escalated survivors.
func (r *Recorder) retained() []HomeSummary {
	out := make([]HomeSummary, 0, len(r.failed)+len(r.topEsc))
	for _, ht := range r.failed {
		out = append(out, homeSummary(ht, "failed"))
	}
	for _, ht := range r.topEsc {
		out = append(out, homeSummary(ht, "escalations"))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

func homeSummary(ht *HomeTrace, why string) HomeSummary {
	return HomeSummary{
		Index:             ht.idx,
		Label:             ht.label,
		Retained:          why,
		Events:            ht.total,
		Ring:              ht.ringEvents(),
		Dropped:           ht.total - uint64(len(ht.ring)),
		EscalationReasons: reasonCounts(ht.esc),
	}
}

// Summary renders the recorder's current state. A summary taken after
// the run completes is deterministic in everything outside Sched.
// Returns the zero Summary on a nil Recorder.
func (r *Recorder) Summary() Summary {
	if r == nil {
		return Summary{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Summary{
		HomesTraced: r.homes,
		Events:      r.events,
	}
	for _, n := range r.esc {
		s.EscalatedBins += n
	}
	s.EscalationReasons = reasonCounts(r.esc)
	s.Retained = r.retained()

	sched := &SchedSummary{SpansDropped: r.spansDropped}
	if n := len(r.sched.Phases) + len(r.spans); n > 0 {
		sched.Spans = make([]SpanRecord, 0, n)
		for _, spans := range [2][]Span{r.sched.Phases, r.spans} {
			for _, sp := range spans {
				sched.Spans = append(sched.Spans, SpanRecord{
					Name:    sp.Name,
					TID:     sp.TID,
					Home:    sp.Home,
					StartUS: float64(sp.StartNS) / 1e3,
					DurUS:   float64(sp.DurNS) / 1e3,
					CPUS:    sp.CPUS,
				})
			}
		}
	}
	if wall := r.sched.HomeWallMS; wall.N() > 0 {
		sched.HomeWallMS = WallQuantiles{
			N:   wall.N(),
			P50: wall.Quantile(0.50),
			P99: wall.Quantile(0.99),
			Max: wall.Max(),
		}
	}
	sched.SlowestHomes = append([]SlowHome(nil), r.sched.SlowestHomes...)
	s.Sched = sched
	return s
}

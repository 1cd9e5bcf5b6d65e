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

// spanChunkLen is the home-span store's chunk length in records: a
// 32 KB chunk.
const spanChunkLen = 1024

// Scheduling sketch resolutions. A fleet home takes 0.07–6 ms on either
// tier at the default window, so the wall sketch resolves 25 µs over
// [0, 100 ms) in 4,000 bins (32 KB). A slower home — a long window, an
// injected stall, a coarse home at the boot threshold — lands in the
// sketch's overflow: counted, and its exact wall time kept as the
// maximum and in the slowest-homes table. A worker shard runs at most a
// few tens of thousands of homes.
const (
	wallHiMS   = 100
	wallMSBins = 4000

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
// recorder epoch. The recorder keeps its run and phase spans as Spans,
// with TID 0 and Home -1, and its home spans more compactly
// (homeSpan).
type Span struct {
	Name    string
	TID     int
	Home    int // home index, -1 for non-home spans
	StartNS int64
	DurNS   int64
	CPUS    float64 // process CPU over the span; run/phase spans only
}

// Home-span kinds: a home attempt's span and its two child spans.
const (
	kindHome uint8 = iota
	kindStall
	kindBinBatch
)

var homeSpanNames = [...]string{kindHome: "home", kindStall: "stall", kindBinBatch: "bin-batch"}

// homeSpan is one record of the home-span stream: 32 bytes where a Span
// takes 56. TID is the worker's id.
type homeSpan struct {
	startNS, durNS int64
	tid, home      int32
	kind           uint8
}

func (h *homeSpan) name() string { return homeSpanNames[h.kind] }

// spanStore is the home-span stream. Its records live in fixed-size
// chunks, allocated one at a time and never copied or regrown, so the
// stream costs its records' bytes up to the last chunk. Records below a
// length read under the recorder's lock stay put, so a reader may read
// them after dropping the lock while the run appends more.
type spanStore struct {
	chunks []*[spanChunkLen]homeSpan // capacity fixed at the first chunk
	n      int
}

// add appends one record; the caller caps the stream at maxSpans.
func (s *spanStore) add(h homeSpan) {
	i := s.n % spanChunkLen
	if i == 0 {
		if s.chunks == nil {
			s.chunks = make([]*[spanChunkLen]homeSpan, 0, (maxSpans+spanChunkLen-1)/spanChunkLen)
		}
		s.chunks = append(s.chunks, new([spanChunkLen]homeSpan))
	}
	s.chunks[s.n/spanChunkLen][i] = h
	s.n++
}

// at returns record i, which must be below the stream's length.
func (s *spanStore) at(i int) *homeSpan { return &s.chunks[i/spanChunkLen][i%spanChunkLen] }

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
	spans        spanStore // home-span stream, capped at maxSpans
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
// cap. The caller holds r.mu.
func (r *Recorder) addSpan(kind uint8, tid, home int, startNS, durNS int64) {
	if r.spans.n < maxSpans {
		r.spans.add(homeSpan{startNS: startNS, durNS: durNS, tid: int32(tid), home: int32(home), kind: kind})
	} else {
		r.spansDropped++
	}
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

// StartHome opens a new handle for home idx at the given attempt, named
// label; nil on a nil Worker. Later attempts of the same home reuse it
// through HomeTrace.Retry. A fleet run opens its handles with OpenHome
// instead.
func (w *Worker) StartHome(idx int, label string, attempt int) *HomeTrace {
	if w == nil {
		return nil
	}
	ht := new(HomeTrace)
	ht.open(w, idx, label, "")
	ht.begin(attempt)
	return ht
}

// OpenHome opens home idx's handle for its first attempt, named stem
// followed by idx; nil on a nil Worker. It re-arms spare, a handle
// Recorder.CommitHome released, when there is one, and allocates only
// when spare is nil. The name is formatted only where it is emitted, so
// a recycled handle costs a home no allocation.
func (w *Worker) OpenHome(spare *HomeTrace, idx int, stem string) *HomeTrace {
	if w == nil {
		return nil
	}
	ht := spare
	if ht == nil {
		ht = new(HomeTrace)
	}
	ht.open(w, idx, "", stem)
	ht.begin(1)
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
	r.mu.Lock()
	r.addSpan(kindHome, w.tid, ht.idx, ht.startNS, ht.durNS)
	if ht.stallNS > 0 {
		r.addSpan(kindStall, w.tid, ht.idx, ht.startNS, ht.stallNS)
	}
	if ht.kernelNS > 0 {
		r.addSpan(kindBinBatch, w.tid, ht.idx, ht.startNS+ht.stallNS, ht.kernelNS)
	}
	r.mu.Unlock()
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
// It returns the handle the recorder no longer holds, for the caller to
// recycle through Worker.OpenHome: ht itself when it was not retained,
// the least-escalated retained handle when ht displaced it from the
// top-K, nil otherwise. Nothing else keeps a handle: the slowest-homes
// table and the span stream hold copies.
//
//powifi:noalloc
func (r *Recorder) CommitHome(ht *HomeTrace, failed bool) (released *HomeTrace) {
	if r == nil || ht == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.homes++
	r.events += ht.total
	for i, n := range ht.esc {
		r.esc[i] += uint64(n)
	}
	switch {
	case failed:
		r.failed = append(r.failed, ht)
	case ht.escTotal == 0:
		released = ht
	default:
		if n := len(r.topEsc); n == r.topK {
			released = ht
			if moreEscalated(ht, r.topEsc[n-1]) {
				released = r.topEsc[n-1]
			}
		}
		r.topEsc = InsertTop(r.topEsc, ht, r.topK, moreEscalated)
	}
	slow := SlowHome{Index: ht.idx, WallMS: float64(ht.durNS) / 1e6,
		DominantSpan: DominantSpan(ht.durNS, ht.kernelNS, ht.stallNS)}
	r.sched.HomeWallMS.Add(slow.WallMS)
	if top := r.sched.SlowestHomes; len(top) < r.topK || slow.Slower(top[len(top)-1]) {
		slow.Label = ht.name()
		r.sched.SlowestHomes = InsertTop(top, slow, r.topK, SlowHome.Slower)
	}
	return released
}

// moreEscalated orders the retained top-K: more escalations first, ties
// to the lower home index.
func moreEscalated(a, b *HomeTrace) bool {
	if a.escTotal != b.escTotal {
		return a.escTotal > b.escTotal
	}
	return a.idx < b.idx
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
		Label:             ht.name(),
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
	if n := len(r.sched.Phases) + r.spans.n; n > 0 {
		sched.Spans = make([]SpanRecord, 0, n)
		for _, sp := range r.sched.Phases {
			sched.Spans = append(sched.Spans, SpanRecord{
				Name:    sp.Name,
				TID:     sp.TID,
				Home:    sp.Home,
				StartUS: float64(sp.StartNS) / 1e3,
				DurUS:   float64(sp.DurNS) / 1e3,
				CPUS:    sp.CPUS,
			})
		}
		for i := range r.spans.n {
			h := r.spans.at(i)
			sched.Spans = append(sched.Spans, SpanRecord{
				Name:    h.name(),
				TID:     int(h.tid),
				Home:    int(h.home),
				StartUS: float64(h.startNS) / 1e3,
				DurUS:   float64(h.durNS) / 1e3,
			})
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

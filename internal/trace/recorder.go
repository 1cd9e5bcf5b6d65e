package trace

import (
	"sort"
	"sync"
	"time"

	"repro/internal/stats"
	"repro/internal/telemetry"
)

// maxSpans caps the raw span stream so a million-home sweep cannot hold
// every home span in memory; spans beyond the cap are counted, never
// silently dropped (SchedSummary.SpansDropped).
const maxSpans = 20000

// Home-wall sketch resolution for the scheduling summary's quantiles:
// per-home wall times of realistic sweeps sit well under a minute.
const (
	wallHiMS   = 60_000
	wallMSBins = 1200
)

// Phase span names, mirroring telemetry's, plus the root run span.
const (
	SpanRun           = "run"
	SpanSurfaceWarmup = "surface_warmup"
	SpanSimulate      = "simulate"
	SpanReportWrite   = "report_write"
)

// Span is one completed span in the raw scheduling-order stream. Start
// is the wall offset from the recorder epoch; TID is 0 for the run and
// phase spans and the worker's id for worker/home/bin-batch spans.
type Span struct {
	Name    string
	TID     int
	Home    int // home index, -1 for non-home spans
	StartNS int64
	DurNS   int64
	CPUS    float64 // process CPU over the span; run/phase spans only
}

// Recorder collects one run's trace: the span stream, per-worker
// handles, and the deterministic per-home aggregates committed through
// the fleet's reorder buffer. A nil *Recorder is the disabled state —
// every method (and every handle it returns) is nil-receiver safe. A
// *Recorder is safe for concurrent use by the run's workers.
type Recorder struct {
	epoch   time.Time
	ringCap int
	topK    int

	mu           sync.Mutex
	spans        []Span
	spansDropped uint64
	workers      []*Worker

	// Deterministic aggregates, written only by CommitHome on the
	// reducing goroutine (the mutex still guards them so a mid-run
	// Summary is safe).
	homes  int
	events uint64
	esc    [numEscReasons]uint64
	failed []*HomeTrace // retained: exhausted homes, commit order
	topEsc []*HomeTrace // retained: top-K by escalations, desc, idx asc

	// Scheduling aggregates.
	wall    *stats.Sketch        // per-home wall, ms
	topSlow []telemetry.SlowHome // top-K by wall, desc
}

// NewRecorder returns an enabled recorder with the default ring and
// retention configuration.
func NewRecorder() *Recorder {
	return &Recorder{
		epoch:   time.Now(),
		ringCap: DefaultRingCap,
		topK:    DefaultTopK,
		wall:    stats.NewSketch(0, wallHiMS, wallMSBins),
	}
}

// now returns the wall offset from the recorder epoch in ns.
func (r *Recorder) now() int64 { return time.Since(r.epoch).Nanoseconds() }

// addSpan appends to the raw span stream, counting drops beyond the
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

// Span starts a run-level phase span (tid 0) and returns its closer,
// recording wall and process CPU time like telemetry's Span. On a nil
// Recorder the closer is a no-op.
func (r *Recorder) Span(name string) func() {
	if r == nil {
		return func() {}
	}
	w0, c0 := r.now(), telemetry.ProcessCPUSeconds()
	return func() {
		r.addSpan(Span{
			Name:    name,
			Home:    -1,
			StartNS: w0,
			DurNS:   r.now() - w0,
			CPUS:    telemetry.ProcessCPUSeconds() - c0,
		})
	}
}

// Worker is one fleet worker's handle factory: it opens its homes'
// handles on the worker's clock and thread id. A worker from NewWorker
// records rings and spans into its recorder; a tally-only worker
// (NewTallyWorker) gives handles that keep only tallies and wall times.
// A nil *Worker ignores every call.
type Worker struct {
	rec   *Recorder // nil on a tally-only worker
	epoch time.Time
	tid   int
}

// NewWorker registers a worker handle; nil on a nil Recorder.
func (r *Recorder) NewWorker() *Worker {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	w := &Worker{rec: r, epoch: r.epoch, tid: len(r.workers) + 1}
	r.workers = append(r.workers, w)
	return w
}

// NewTallyWorker returns a worker for a run that collects telemetry
// without tracing: its handles tally work and time the home, but keep
// no ring and emit no spans.
func NewTallyWorker() *Worker {
	return &Worker{epoch: time.Now()}
}

// now returns the wall offset from the worker's epoch in ns.
func (w *Worker) now() int64 { return time.Since(w.epoch).Nanoseconds() }

// StartHome opens a home's handle at the given attempt; nil on a nil
// Worker. Later attempts of the same home reuse it through
// HomeTrace.Retry.
func (w *Worker) StartHome(idx int, label string, attempt int) *HomeTrace {
	if w == nil {
		return nil
	}
	ht := &HomeTrace{w: w, idx: idx, label: label}
	if w.rec != nil {
		ht.ringCap = w.rec.ringCap
	}
	ht.begin(attempt)
	return ht
}

// EndHome closes a home attempt: it stamps the duration and, on a
// recording worker, appends the home span (plus stall and bin-batch
// child spans when present) to the raw stream. Safe on nil Worker or
// nil HomeTrace.
//
//powifi:noalloc
func (w *Worker) EndHome(ht *HomeTrace) {
	if w == nil || ht == nil {
		return
	}
	ht.durNS = w.now() - ht.startNS
	if w.rec == nil {
		return
	}
	w.rec.addSpan(Span{Name: "home", TID: w.tid, Home: ht.idx, StartNS: ht.startNS, DurNS: ht.durNS})
	if ht.stallNS > 0 {
		w.rec.addSpan(Span{Name: "stall", TID: w.tid, Home: ht.idx, StartNS: ht.startNS, DurNS: ht.stallNS})
	}
	if ht.kernelNS > 0 {
		w.rec.addSpan(Span{Name: "bin-batch", TID: w.tid, Home: ht.idx,
			StartNS: ht.startNS + ht.stallNS, DurNS: ht.kernelNS})
	}
}

// CommitHome folds one home's trace into the recorder. It is called on
// the reducing goroutine in home-index order — the same commit point as
// every other per-home aggregate — so the deterministic aggregates are
// bit-for-bit identical at any worker count. failed marks a home whose
// attempts were exhausted; its ring is always retained. Safe on nil
// Recorder or nil HomeTrace.
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
		r.topEsc = telemetry.InsertTop(r.topEsc, ht, r.topK, func(a, b *HomeTrace) bool {
			if a.escTotal != b.escTotal {
				return a.escTotal > b.escTotal
			}
			return a.idx < b.idx
		})
	}
	slow := ht.SlowHome()
	r.wall.Add(slow.WallMS)
	r.topSlow = telemetry.InsertTop(r.topSlow, slow, r.topK, telemetry.SlowHome.Slower)
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
	// Spans is the raw scheduling-order span stream (capped at
	// maxSpans; SpansDropped counts the overflow).
	Spans        []SpanRecord `json:"spans,omitempty"`
	SpansDropped uint64       `json:"spans_dropped,omitempty"`
	// HomeWallMS summarizes the per-home wall-time distribution.
	HomeWallMS WallQuantiles `json:"home_wall_ms"`
	// SlowestHomes lists the top-K slowest homes with their dominant
	// span.
	SlowestHomes []telemetry.SlowHome `json:"slowest_homes,omitempty"`
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
		EscalationReasons: ht.escalationReasons(),
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
	for i, n := range r.esc {
		if n == 0 {
			continue
		}
		s.EscalatedBins += n
		if s.EscalationReasons == nil {
			s.EscalationReasons = make(map[string]uint64, numEscReasons)
		}
		s.EscalationReasons[EscReason(i).String()] = n
	}
	s.Retained = r.retained()

	sched := &SchedSummary{SpansDropped: r.spansDropped}
	for _, sp := range r.spans {
		sched.Spans = append(sched.Spans, SpanRecord{
			Name:    sp.Name,
			TID:     sp.TID,
			Home:    sp.Home,
			StartUS: float64(sp.StartNS) / 1e3,
			DurUS:   float64(sp.DurNS) / 1e3,
			CPUS:    sp.CPUS,
		})
	}
	if n := r.wall.N(); n > 0 {
		sched.HomeWallMS = WallQuantiles{
			N:   n,
			P50: r.wall.Quantile(0.50),
			P99: r.wall.Quantile(0.99),
			Max: r.wall.Max(),
		}
	}
	sched.SlowestHomes = append([]telemetry.SlowHome(nil), r.topSlow...)
	s.Sched = sched
	return s
}

// Package trace is the run recorder for fleet simulations: the one
// store of a run's spans, scheduling observations and per-home
// forensics. It keeps hierarchical spans (run → phase → worker → home →
// bin-batch) with wall and CPU time, a fixed-size per-home flight
// recorder of structured events, machine-readable escalation reasons
// for the coarse tier, the per-home wall sketch and slowest-homes
// table, worker shard occupancy and slot waits, and a Chrome trace-event
// export that loads in Perfetto.
//
// Its per-home handle, HomeTrace, is the one instrumentation handle a
// fleet home carries: deploy, core and lifecycle report into it, and it
// keeps both the flight recorder and the work tallies (Tally) that
// internal/telemetry counts. At the fleet reducer's commit point each
// handle commits once into the recorder (Recorder.CommitHome), which
// hands back the handles it does not retain for the next homes to
// reopen (Worker.OpenHome), and its tallies fold into telemetry's work
// counters; telemetry's spans and
// scheduling diagnostics are views over the recorder (Recorder.Sched).
// A run that collects telemetry without tracing uses a tally-only
// recorder (NewTallyRecorder): no rings and no home spans.
//
// # Determinism contract
//
// Tracing is strictly out of band: it draws no randomness, changes no
// event order, and never feeds back into the simulation, so enabling
// it leaves every simulation output byte-identical. Disabled (a nil
// *Recorder and therefore nil *Worker and *HomeTrace handles), every
// instrumentation call is a nil-receiver no-op — one branch, zero
// allocations — so the hot paths keep their allocation budgets.
//
// Like telemetry's work/sched split, the summary splits in two:
//
//   - Deterministic forensics — per-home event counts, flight-recorder
//     rings, escalation-reason totals, retention decisions — are keyed
//     to the simulation (bin indices, reason codes, attempt numbers),
//     never the clock, and fold at the fleet reducer's commit point in
//     home-index order, so they are bit-for-bit identical at any
//     worker count.
//   - Scheduling observations — raw spans, per-home wall times, the
//     top-K slowest homes — measure how the run was executed. They are
//     quarantined under the summary's "sched" section and must never
//     be compared across parallelism.
package trace

import (
	"strconv"

	"repro/internal/surface"
)

// Flight-recorder defaults: the ring keeps the newest RingCap events
// per home (a day of hourly bins fits whole; bigger homes drop the
// oldest), and the recorder retains full rings for the DefaultTopK
// most-escalated and slowest homes beyond the always-retained failures.
const (
	DefaultRingCap = 64
	DefaultTopK    = 8
)

// EscReason is the machine-readable reason a coarse-tier proxied bin
// escalated to the exact event simulation. The coarse tier reports one
// per escalated bin; totals per reason are workers-invariant.
type EscReason uint8

const (
	// EscConsensusSplit: the surrounding anchors disagree on the
	// boot/silence verdict, so there is no consensus to certify.
	EscConsensusSplit EscReason = iota
	// EscGuardDisagree: the guard-band query contradicts the anchors'
	// verdict — the decision is not stable under the ±Guard swing.
	EscGuardDisagree
	// EscOccFitUnstable: the fitted harvest magnitude contradicts the
	// certified verdict's sign, so neither is trusted.
	EscOccFitUnstable

	numEscReasons = 3
)

var escReasonNames = [numEscReasons]string{"consensus-split", "guard-disagree", "occ-fit-unstable"}

// String returns the stable reason code used in summaries and reports.
func (r EscReason) String() string {
	if int(r) < len(escReasonNames) {
		return escReasonNames[r]
	}
	return "unknown"
}

// EventKind classifies one flight-recorder event.
type EventKind uint8

const (
	// EvBinSim: a bin ran the packet-level event simulation; Arg is the
	// number of kernel events the window scheduled.
	EvBinSim EventKind = iota
	// EvSurfaceExact: an operating-point query left the interpolation
	// grid and re-solved exactly.
	EvSurfaceExact
	// EvSurfaceGuard: a query landed in the Seiko startup guard band
	// and deferred to the exact solver.
	EvSurfaceGuard
	// EvOccFit: the coarse tier fitted one channel's load→occupancy
	// response; Code is the channel index, Arg the fitted slope.
	EvOccFit
	// EvHarvestFit: the coarse tier fitted the occupancy→harvest
	// response; Arg is the fitted slope.
	EvHarvestFit
	// EvGuardQuery: a coarse guard-band query; Arg is 1 when the
	// verdict proved stable, 0 when it did not.
	EvGuardQuery
	// EvEscalate: a proxied bin escalated to the event simulation;
	// Code is the EscReason.
	EvEscalate
	// EvBoot / EvBrownout: a lifecycle device crossed its operating
	// threshold in this bin.
	EvBoot
	EvBrownout
	// EvFault: an armed faultinject failpoint fired; Note is the site.
	EvFault
	// EvRetry: the home re-attempted after a recovered panic; Arg is
	// the attempt number.
	EvRetry
	// EvQuarantine: the reducer quarantined the home under the skip
	// policy after its attempts were exhausted.
	EvQuarantine
)

var eventKindNames = [...]string{
	EvBinSim: "bin-sim", EvSurfaceExact: "surface-exact", EvSurfaceGuard: "surface-guard",
	EvOccFit: "occ-fit", EvHarvestFit: "harvest-fit", EvGuardQuery: "guard-query",
	EvEscalate: "escalate", EvBoot: "boot", EvBrownout: "brownout",
	EvFault: "fault", EvRetry: "retry", EvQuarantine: "quarantine",
}

// String returns the stable kind name used in summaries and exports.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return "unknown"
}

// Event is one flight-recorder entry. Every field is derived from the
// deterministic simulation (bin indices, reason codes, event counts),
// never from the clock, so a home's ring is bit-for-bit identical at
// any worker count.
type Event struct {
	Kind EventKind
	// Bin is the logging-bin index the event is scoped to, -1 for
	// home-level events (faults, retries, quarantine, fits).
	Bin int32
	// Code is the kind-specific discriminant: the EscReason of an
	// EvEscalate, the channel index of an EvOccFit.
	Code uint8
	// Arg is the kind-specific magnitude (kernel events of an EvBinSim,
	// fitted slope of a fit, attempt number of an EvRetry).
	Arg float64
	// Note is the kind-specific identifier (the faultinject site of an
	// EvFault); empty otherwise.
	Note string
}

// record renders the event into its serialized form.
func (e Event) record() EventRecord {
	r := EventRecord{Kind: e.Kind.String(), Bin: int(e.Bin), Arg: e.Arg, Detail: e.Note}
	switch e.Kind {
	case EvEscalate:
		r.Detail = EscReason(e.Code).String()
	case EvOccFit:
		r.Detail = "ch" + strconv.Itoa(int(e.Code))
	}
	return r
}

// EventRecord is the serialized form of an Event, used by the report
// summary, the HomeError trace payload, and the Chrome export.
type EventRecord struct {
	Kind string `json:"kind"`
	// Bin is the logging-bin index, -1 for home-level events.
	Bin    int     `json:"bin"`
	Detail string  `json:"detail,omitempty"`
	Arg    float64 `json:"arg,omitempty"`
}

// Dump is one home's flight-recorder payload: the retained ring in
// oldest-first order plus the count of older events the fixed-size ring
// dropped. It is attached to fleet HomeErrors and to the Chrome export
// so a failed or escalating home carries its own forensics.
type Dump struct {
	Label   string        `json:"label"`
	Events  []EventRecord `json:"events,omitempty"`
	Dropped uint64        `json:"dropped,omitempty"`
}

// Tally is one home's work tallies. The home's handle keeps them while
// the home runs; telemetry folds them into its work counters once the
// home commits.
type Tally struct {
	// Bins counts logging bins that ran the packet-level event
	// simulation.
	Bins uint64
	// SurfaceHits, SurfaceExact and SurfaceGuard count operating-point
	// surface queries by outcome.
	SurfaceHits, SurfaceExact, SurfaceGuard uint64
	// Boots and Brownouts count lifecycle transitions.
	Boots, Brownouts uint64
	// Faults counts injected faults fired and Attempts the attempts
	// made, over every attempt of the home.
	Faults, Attempts uint64
}

// HomeTrace is one home's observation handle — the only per-home
// instrumentation handle of a fleet run. It keeps a fixed-size ring of
// structured events (the flight recorder), the home's work tallies that
// telemetry folds at commit (Tally), and — for the scheduling record
// only — the home's wall-time breakdown. A handle from a tally-only
// recorder (NewTallyRecorder) keeps the tallies and wall times but no
// ring and emits no spans. A nil *HomeTrace (nothing observes) ignores
// every call; a HomeTrace is owned by one worker at a time and needs no
// locking.
type HomeTrace struct {
	w   *Worker
	idx int
	// label names the home as StartHome was given it; a handle OpenHome
	// opened keeps a constant stem instead, and its name (stem followed
	// by the home index) is formatted only where it is emitted: a dump,
	// a retained ring, an inserted slowest-homes row.
	label, stem string

	// ring grows lazily up to ringCap, then wraps: a quiet home costs
	// a few small appends, never the full ring's allocation. ringCap
	// is zero on a tally-only handle.
	ring    []Event
	ringCap int
	start   int // oldest entry when the ring has wrapped
	total   uint64

	esc      [numEscReasons]uint32
	escTotal uint32

	tally Tally

	// Scheduling observations (never part of the deterministic
	// summary): wall offsets from the recorder's epoch, in ns.
	startNS, durNS, kernelNS, stallNS int64
}

// open re-arms h for home idx on worker w. The ring keeps its storage,
// so a recycled handle allocates nothing until its ring outgrows the
// last home's.
func (h *HomeTrace) open(w *Worker, idx int, label, stem string) {
	*h = HomeTrace{w: w, idx: idx, label: label, stem: stem, ring: h.ring[:0], ringCap: w.rec.ringCap}
}

// name returns the home's label, formatting a stem-named handle's from
// its index.
func (h *HomeTrace) name() string {
	if h.stem == "" {
		return h.label
	}
	return h.stem + strconv.Itoa(h.idx)
}

// begin opens the given attempt: it stamps the attempt count and the
// start time, and a retry opens the ring with its retry event.
func (h *HomeTrace) begin(attempt int) {
	h.tally.Attempts = uint64(attempt)
	h.startNS = h.w.rec.now()
	if attempt > 1 {
		h.push(Event{Kind: EvRetry, Bin: -1, Arg: float64(attempt)})
	}
}

// push appends an event, overwriting the oldest entry once the ring is
// full; a tally-only handle keeps no events.
//
//powifi:noalloc
func (h *HomeTrace) push(e Event) {
	if h.ringCap == 0 {
		return
	}
	h.total++
	if len(h.ring) < h.ringCap {
		h.ring = append(h.ring, e)
		return
	}
	h.ring[h.start] = e
	h.start++
	if h.start == len(h.ring) {
		h.start = 0
	}
}

// BinSimulated records that bin ran the packet-level event simulation,
// scheduling events kernel events.
//
//powifi:noalloc
func (h *HomeTrace) BinSimulated(bin int, events uint64) {
	if h == nil {
		return
	}
	h.tally.Bins++
	h.push(Event{Kind: EvBinSim, Bin: int32(bin), Arg: float64(events)})
}

// SurfaceOutcome records one operating-point surface query made for
// bin (core.SurfaceSink): every outcome is tallied, and the anomalies —
// exact-solver fallbacks and guard-band hits — also enter the ring
// (grid hits are the steady state).
//
//powifi:noalloc
func (h *HomeTrace) SurfaceOutcome(bin int, out surface.Outcome) {
	if h == nil {
		return
	}
	switch out {
	case surface.OutcomeExact:
		h.tally.SurfaceExact++
		h.push(Event{Kind: EvSurfaceExact, Bin: int32(bin)})
	case surface.OutcomeGuardBand:
		h.tally.SurfaceGuard++
		h.push(Event{Kind: EvSurfaceGuard, Bin: int32(bin)})
	default:
		h.tally.SurfaceHits++
	}
}

// OccFit records the coarse tier's per-channel occupancy fit.
func (h *HomeTrace) OccFit(channel int, slope float64) {
	if h != nil {
		h.push(Event{Kind: EvOccFit, Bin: -1, Code: uint8(channel), Arg: slope})
	}
}

// HarvestFit records the coarse tier's harvest-response fit.
func (h *HomeTrace) HarvestFit(slope float64) {
	if h != nil {
		h.push(Event{Kind: EvHarvestFit, Bin: -1, Arg: slope})
	}
}

// GuardQuery records a coarse guard-band query on bin and whether the
// proxied verdict proved stable.
//
//powifi:noalloc
func (h *HomeTrace) GuardQuery(bin int, stable bool) {
	if h == nil {
		return
	}
	arg := 0.0
	if stable {
		arg = 1
	}
	h.push(Event{Kind: EvGuardQuery, Bin: int32(bin), Arg: arg})
}

// Escalate records a proxied bin escalating to the event simulation
// with its machine-readable reason.
//
//powifi:noalloc
func (h *HomeTrace) Escalate(bin int, reason EscReason) {
	if h == nil {
		return
	}
	h.esc[reason]++
	h.escTotal++
	h.push(Event{Kind: EvEscalate, Bin: int32(bin), Code: uint8(reason)})
}

// Boot records a lifecycle device entering the operating state in bin.
func (h *HomeTrace) Boot(bin int) {
	if h != nil {
		h.tally.Boots++
		h.push(Event{Kind: EvBoot, Bin: int32(bin)})
	}
}

// Brownout records a lifecycle device dropping out of the operating
// state in bin.
func (h *HomeTrace) Brownout(bin int) {
	if h != nil {
		h.tally.Brownouts++
		h.push(Event{Kind: EvBrownout, Bin: int32(bin)})
	}
}

// Fault records an armed faultinject failpoint firing at the named
// site.
func (h *HomeTrace) Fault(site string) {
	if h != nil {
		h.tally.Faults++
		h.push(Event{Kind: EvFault, Bin: -1, Note: site})
	}
}

// Retry re-arms the handle for the home's next attempt after a
// recovered panic. The ring, escalations, work tallies and wall times
// start over, so each attempt's forensics stand alone; the faults fired
// and the attempt count carry over, so every attempt is counted. The
// new ring opens with the retry event.
func (h *HomeTrace) Retry() {
	if h == nil {
		return
	}
	faults, attempt := h.tally.Faults, int(h.tally.Attempts)+1
	h.open(h.w, h.idx, h.label, h.stem)
	h.tally.Faults = faults
	h.begin(attempt)
}

// Quarantine records the reducer quarantining the home under the skip
// policy. Called on the reducing goroutine, in home-index order.
func (h *HomeTrace) Quarantine() {
	if h != nil {
		h.push(Event{Kind: EvQuarantine, Bin: -1})
	}
}

// BeginKernel and EndKernel bracket the attempt's batched event kernel
// (scheduling stream only).
//
//powifi:noalloc
func (h *HomeTrace) BeginKernel() {
	if h != nil {
		h.kernelNS = h.w.rec.now()
	}
}

// EndKernel closes the kernel span BeginKernel opened.
//
//powifi:noalloc
func (h *HomeTrace) EndKernel() {
	if h != nil {
		h.kernelNS = h.w.rec.now() - h.kernelNS
	}
}

// Stall records wall time the attempt spent stalled before the kernel
// (an injected home.slow delay; scheduling stream only).
//
//powifi:noalloc
func (h *HomeTrace) Stall(ns int64) {
	if h != nil {
		h.stallNS += ns
	}
}

// Events returns the total number of events observed (including those
// the ring dropped).
func (h *HomeTrace) Events() uint64 {
	if h == nil {
		return 0
	}
	return h.total
}

// Escalations returns the home's total escalated-bin count.
func (h *HomeTrace) Escalations() uint32 {
	if h == nil {
		return 0
	}
	return h.escTotal
}

// Tally returns the home's work tallies (zero on a nil handle).
func (h *HomeTrace) Tally() Tally {
	if h == nil {
		return Tally{}
	}
	return h.tally
}

// ringEvents returns the retained ring in oldest-first order.
func (h *HomeTrace) ringEvents() []EventRecord {
	if h == nil || len(h.ring) == 0 {
		return nil
	}
	out := make([]EventRecord, 0, len(h.ring))
	for i := 0; i < len(h.ring); i++ {
		out = append(out, h.ring[(h.start+i)%len(h.ring)].record())
	}
	return out
}

// Dump renders the flight recorder into its serialized payload; nil on
// a nil or tally-only handle, which keeps no ring.
func (h *HomeTrace) Dump() *Dump {
	if h == nil || h.ringCap == 0 {
		return nil
	}
	return &Dump{
		Label:   h.name(),
		Events:  h.ringEvents(),
		Dropped: h.total - uint64(len(h.ring)),
	}
}

// DominantSpan names where a home's wall time went: an injected stall
// ("stall"), the batched event kernel ("bin-batch"), or the residual
// ("other": synthesis, ledger, folds, scheduling). It labels the
// slowest-homes table.
func DominantSpan(wallNS, kernelNS, stallNS int64) string {
	other := wallNS - kernelNS - stallNS
	switch {
	case stallNS >= kernelNS && stallNS >= other:
		return "stall"
	case kernelNS >= other:
		return "bin-batch"
	default:
		return "other"
	}
}

// reasonCounts renders per-reason escalation totals keyed by reason
// code, nil when nothing escalated.
func reasonCounts[N uint32 | uint64](esc [numEscReasons]N) map[string]uint64 {
	var m map[string]uint64
	for r, n := range esc {
		if n > 0 {
			if m == nil {
				m = make(map[string]uint64, numEscReasons)
			}
			m[EscReason(r).String()] = uint64(n)
		}
	}
	return m
}

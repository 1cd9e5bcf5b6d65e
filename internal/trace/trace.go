// Package trace is the run-scoped tracing layer for fleet simulations:
// hierarchical spans (run → phase → worker → home → bin-batch) with
// wall and CPU time, a fixed-size per-home flight recorder of
// structured events, machine-readable escalation reasons for the
// coarse tier, and a Chrome trace-event export that loads in Perfetto.
// It generalizes internal/telemetry's flat span list to a tree and its
// counters to per-home event forensics, under the same contract.
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
//     never the clock, and fold through the fleet's reorder buffer in
//     home-index order, so they are bit-for-bit identical at any
//     worker count.
//   - Scheduling observations — raw spans, per-home wall times, the
//     top-K slowest homes — measure how the run was executed. They are
//     quarantined under the summary's "sched" section and must never
//     be compared across parallelism.
package trace

import "strconv"

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

// String returns the stable reason code used in summaries and reports.
func (r EscReason) String() string {
	switch r {
	case EscConsensusSplit:
		return "consensus-split"
	case EscGuardDisagree:
		return "guard-disagree"
	case EscOccFitUnstable:
		return "occ-fit-unstable"
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

// String returns the stable kind name used in summaries and exports.
func (k EventKind) String() string {
	switch k {
	case EvBinSim:
		return "bin-sim"
	case EvSurfaceExact:
		return "surface-exact"
	case EvSurfaceGuard:
		return "surface-guard"
	case EvOccFit:
		return "occ-fit"
	case EvHarvestFit:
		return "harvest-fit"
	case EvGuardQuery:
		return "guard-query"
	case EvEscalate:
		return "escalate"
	case EvBoot:
		return "boot"
	case EvBrownout:
		return "brownout"
	case EvFault:
		return "fault"
	case EvRetry:
		return "retry"
	case EvQuarantine:
		return "quarantine"
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

// HomeTrace is one home's flight recorder: a fixed-size ring of
// structured events plus deterministic per-home tallies and — for the
// scheduling stream only — the home's wall-time breakdown. A nil
// *HomeTrace (tracing disabled) ignores every call; a HomeTrace is
// owned by one worker at a time and needs no locking.
type HomeTrace struct {
	idx   int
	label string
	tid   int
	nBins int

	// bin is the instrumentation cursor: deploy and core set it as they
	// walk bins so surface events can attribute without threading a bin
	// argument through the solver chain.
	bin int32

	// ring grows lazily up to ringCap, then wraps: a quiet home costs
	// a few small appends, never the full ring's allocation.
	ring    []Event
	ringCap int
	start   int // oldest entry when the ring has wrapped
	total   uint64

	esc      [numEscReasons]uint32
	escTotal uint32

	// Scheduling observations (never part of the deterministic
	// summary): wall offsets from the recorder epoch, in ns.
	startNS, durNS, kernelNS, stallNS int64
}

// Index returns the home's index (-1 on a nil trace).
func (h *HomeTrace) Index() int {
	if h == nil {
		return -1
	}
	return h.idx
}

// Label returns the home's RNG stream label ("" on a nil trace).
func (h *HomeTrace) Label() string {
	if h == nil {
		return ""
	}
	return h.label
}

// push appends an event, overwriting the oldest entry once the ring is
// full.
//
//powifi:noalloc
func (h *HomeTrace) push(e Event) {
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

// SetBins records the home's logging-bin count (used to place ring
// events proportionally in the Chrome export).
func (h *HomeTrace) SetBins(n int) {
	if h != nil {
		h.nBins = n
	}
}

// SetBin moves the instrumentation cursor: subsequent cursor-scoped
// events (surface fallbacks) attribute to this bin.
//
//powifi:noalloc
func (h *HomeTrace) SetBin(bin int) {
	if h != nil {
		h.bin = int32(bin)
	}
}

// BinSimulated records that bin ran the packet-level event simulation,
// scheduling events kernel events, and moves the cursor to it.
//
//powifi:noalloc
func (h *HomeTrace) BinSimulated(bin int, events uint64) {
	if h == nil {
		return
	}
	h.bin = int32(bin)
	h.push(Event{Kind: EvBinSim, Bin: int32(bin), Arg: float64(events)})
}

// SurfaceExact records an exact-solver fallback at the cursor bin.
//
//powifi:noalloc
func (h *HomeTrace) SurfaceExact() {
	if h != nil {
		h.push(Event{Kind: EvSurfaceExact, Bin: h.bin})
	}
}

// SurfaceGuard records a guard-band fallback at the cursor bin.
//
//powifi:noalloc
func (h *HomeTrace) SurfaceGuard() {
	if h != nil {
		h.push(Event{Kind: EvSurfaceGuard, Bin: h.bin})
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
		h.push(Event{Kind: EvBoot, Bin: int32(bin)})
	}
}

// Brownout records a lifecycle device dropping out of the operating
// state in bin.
func (h *HomeTrace) Brownout(bin int) {
	if h != nil {
		h.push(Event{Kind: EvBrownout, Bin: int32(bin)})
	}
}

// Fault records an armed faultinject failpoint firing at the named
// site.
func (h *HomeTrace) Fault(site string) {
	if h != nil {
		h.push(Event{Kind: EvFault, Bin: -1, Note: site})
	}
}

// Retry records the home re-attempting after a recovered panic.
func (h *HomeTrace) Retry(attempt int) {
	if h != nil {
		h.push(Event{Kind: EvRetry, Bin: -1, Arg: float64(attempt)})
	}
}

// Quarantine records the reducer quarantining the home under the skip
// policy. Called on the reducing goroutine, in home-index order.
func (h *HomeTrace) Quarantine() {
	if h != nil {
		h.push(Event{Kind: EvQuarantine, Bin: -1})
	}
}

// Kernel records the attempt's batched-kernel wall time (scheduling
// stream only).
//
//powifi:noalloc
func (h *HomeTrace) Kernel(ns int64) {
	if h != nil {
		h.kernelNS = ns
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
// a nil trace.
func (h *HomeTrace) Dump() *Dump {
	if h == nil {
		return nil
	}
	return &Dump{
		Label:   h.label,
		Events:  h.ringEvents(),
		Dropped: h.total - uint64(len(h.ring)),
	}
}

// DominantSpan names where a home's wall time went: an injected stall
// ("stall"), the batched event kernel ("bin-batch"), or the residual
// ("other": synthesis, ledger, folds, scheduling). It labels both the
// trace's slowest_homes and the telemetry probe's slow_homes tables.
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

// escalationReasons renders the per-reason totals, nil when the home
// never escalated.
func (h *HomeTrace) escalationReasons() map[string]uint64 {
	if h.escTotal == 0 {
		return nil
	}
	m := make(map[string]uint64, numEscReasons)
	for r, n := range h.esc {
		if n > 0 {
			m[EscReason(r).String()] = uint64(n)
		}
	}
	return m
}

package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"repro/internal/surface"
)

// TestNilSafety pins the disabled state: every method on a nil
// Recorder, Worker or HomeTrace must be a no-op with a sane return, so
// call sites need no guards.
func TestNilSafety(t *testing.T) {
	var r *Recorder
	r.Span("run")() // closer must also be callable
	if w := r.NewWorker(); w != nil {
		t.Fatalf("nil Recorder NewWorker = %v, want nil", w)
	}
	r.CommitHome(nil, true)
	r.ObserveShard(3, 2)
	if s := r.Summary(); !reflect.DeepEqual(s, Summary{}) {
		t.Fatalf("nil Recorder Summary = %+v, want zero", s)
	}
	if s := r.Sched(); !reflect.DeepEqual(s, Sched{}) {
		t.Fatalf("nil Recorder Sched = %+v, want zero", s)
	}

	var w *Worker
	ht := w.StartHome(3, "fleet/home/3", 1)
	if ht != nil {
		t.Fatalf("nil Worker StartHome = %v, want nil", ht)
	}
	w.EndHome(ht)

	// ht is nil: the full instrumentation surface must ignore it.
	ht.BinSimulated(5, 100)
	ht.SurfaceOutcome(5, surface.OutcomeExact)
	ht.SurfaceOutcome(5, surface.OutcomeGuardBand)
	ht.OccFit(1, 0.5)
	ht.HarvestFit(0.5)
	ht.GuardQuery(5, true)
	ht.Escalate(5, EscGuardDisagree)
	ht.Boot(2)
	ht.Brownout(3)
	ht.Fault("home.panic")
	ht.Retry()
	ht.Quarantine()
	ht.BeginKernel()
	ht.EndKernel()
	ht.Stall(100)
	if ht.Events() != 0 || ht.Escalations() != 0 || ht.Tally() != (Tally{}) {
		t.Fatal("nil HomeTrace accessors returned non-zero values")
	}
	if d := ht.Dump(); d != nil {
		t.Fatalf("nil HomeTrace Dump = %v, want nil", d)
	}
}

// TestNilAllocs pins the disabled-path allocation budget at zero: the
// hot-loop instrumentation calls — the //powifi:noalloc sink entry
// points — must cost one nil check and nothing else.
func TestNilAllocs(t *testing.T) {
	var r *Recorder
	var w *Worker
	var ht *HomeTrace
	if n := testing.AllocsPerRun(100, func() {
		ht.BinSimulated(5, 100)
		ht.SurfaceOutcome(5, surface.OutcomeHit)
		ht.SurfaceOutcome(5, surface.OutcomeExact)
		ht.GuardQuery(5, true)
		ht.Escalate(5, EscConsensusSplit)
		ht.BeginKernel()
		ht.EndKernel()
		ht.Stall(10)
		w.EndHome(ht)
		r.CommitHome(ht, false)
		r.ObserveShard(1, 1)
	}); n != 0 {
		t.Fatalf("nil-receiver instrumentation allocates %v/op, want 0", n)
	}
}

// TestTallyRecorderAllocs pins a tally-only recorder's steady state at
// zero allocations: the handle calls a telemetry-only run makes per
// bin, and the per-home EndHome and CommitHome, which fold the wall
// time into the sketch and the bounded slowest-homes table.
func TestTallyRecorderAllocs(t *testing.T) {
	r := NewTallyRecorder()
	w := r.NewWorker()
	ht := w.StartHome(0, "fleet/home/0", 1)
	if n := testing.AllocsPerRun(100, func() {
		ht.BinSimulated(5, 100)
		ht.SurfaceOutcome(5, surface.OutcomeHit)
		ht.SurfaceOutcome(5, surface.OutcomeExact)
		ht.GuardQuery(5, true)
		ht.Escalate(5, EscConsensusSplit)
		ht.BeginKernel()
		ht.EndKernel()
		ht.Stall(10)
		w.EndHome(ht)
		r.CommitHome(ht, false)
	}); n != 0 {
		t.Fatalf("tally-only instrumentation allocates %v/op, want 0", n)
	}
	if s := r.Summary(); s.HomesTraced != 101 || s.Sched.HomeWallMS.N != 101 || len(s.Sched.Spans) != 0 {
		t.Fatalf("tally-only summary = %+v, want 101 commits and no home spans", s)
	}
}

// TestCommitHomeReleasesUnretainedHandles pins the recycling contract:
// CommitHome hands back exactly the handles it no longer holds (an
// unretained home's, or the top-K entry a more-escalated home
// displaced), and OpenHome re-arms a released handle as a fresh one,
// its ring emptied but its storage kept, allocating nothing.
func TestCommitHomeReleasesUnretainedHandles(t *testing.T) {
	r := NewRecorder()
	w := r.NewWorker()
	commit := func(idx int, escalations int, failed bool) (*HomeTrace, *HomeTrace) {
		ht := w.OpenHome(nil, idx, "fleet/home/")
		for i := 0; i < escalations; i++ {
			ht.Escalate(i, EscGuardDisagree)
		}
		w.EndHome(ht)
		return ht, r.CommitHome(ht, failed)
	}
	if ht, released := commit(0, 0, false); released != ht {
		t.Errorf("quiet home: released %p, want its own handle %p", released, ht)
	}
	if _, released := commit(1, 0, true); released != nil {
		t.Errorf("failed home: released %p, want nil (always retained)", released)
	}
	var weakest *HomeTrace
	for i := 0; i < DefaultTopK; i++ {
		ht, released := commit(10+i, 1, false)
		if released != nil {
			t.Fatalf("top-K filling: home %d released %p, want nil", 10+i, released)
		}
		weakest = ht // ties rank by index, so the last is the weakest
	}
	if ht, released := commit(30, 1, false); released != ht {
		t.Errorf("home too weak for a full table: released %p, want its own handle %p", released, ht)
	}
	if _, released := commit(31, 2, false); released != weakest {
		t.Errorf("displacing home: released %p, want the displaced weakest %p", released, weakest)
	}
	for _, hs := range r.Summary().Retained {
		if hs.Index == weakest.idx {
			t.Errorf("displaced home %d still retained", hs.Index)
		}
	}

	spare := weakest
	ringCap := cap(spare.ring)
	ht := w.OpenHome(spare, 40, "fleet/home/")
	if ht != spare || len(ht.ring) != 0 || cap(ht.ring) != ringCap || ht.Events() != 0 || ht.Escalations() != 0 {
		t.Fatalf("reopened handle: same=%v ring %d/%d events %d escalations %d, want the spare emptied with its storage",
			ht == spare, len(ht.ring), cap(ht.ring), ht.Events(), ht.Escalations())
	}
	ht.BinSimulated(0, 9)
	if d := ht.Dump(); d.Label != "fleet/home/40" || len(d.Events) != 1 || d.Dropped != 0 {
		t.Fatalf("reopened handle's dump = %+v, want home 40 with its one event", d)
	}
	if n := testing.AllocsPerRun(100, func() {
		ht = w.OpenHome(ht, 40, "fleet/home/")
		ht.BinSimulated(0, 9)
		ht.Escalate(0, EscConsensusSplit)
		ht.Retry()
	}); n != 0 {
		t.Fatalf("reopening a released handle allocates %v/op, want 0", n)
	}
}

// TestPhaseSpansSurviveSpanCap pins the phase spans outside the
// home-span cap: a run whose homes overflow the stream still reports
// its simulate and run spans, and only home spans count as dropped.
func TestPhaseSpansSurviveSpanCap(t *testing.T) {
	r := NewRecorder()
	endRun := r.Span(SpanRun)
	endSim := r.Span(SpanSimulate)
	w := r.NewWorker()
	const homes = maxSpans/2 + 1000
	for i := 0; i < homes; i++ {
		ht := w.StartHome(i, "fleet/home", 1)
		ht.Stall(1) // a child span beside the home span
		w.EndHome(ht)
	}
	endSim()
	endRun()

	s := r.Summary().Sched
	var phases []string
	for _, sp := range s.Spans {
		if sp.TID == 0 {
			phases = append(phases, sp.Name)
		}
	}
	if want := []string{SpanSimulate, SpanRun}; !reflect.DeepEqual(phases, want) {
		t.Errorf("phase spans = %v, want %v", phases, want)
	}
	if want := uint64(2*homes - maxSpans); s.SpansDropped != want {
		t.Errorf("SpansDropped = %d, want %d home spans", s.SpansDropped, want)
	}
	if len(s.Spans) != maxSpans+2 {
		t.Errorf("len(Spans) = %d, want the capped home stream plus 2 phases", len(s.Spans))
	}
}

// TestSchedView checks the scheduling record a bound telemetry
// collector reads: phase spans, sketches, slot waits and the slowest
// homes — top entries by wall time, ties to the lower index, failed
// homes included — copied so a later commit cannot reach the view.
func TestSchedView(t *testing.T) {
	r := NewTallyRecorder()
	r.Span(SpanSimulate)()
	r.ObserveShard(4, 2)
	r.ObserveShard(4, 1)
	w := r.NewWorker()
	for i := 0; i <= 10; i++ {
		ht := w.StartHome(i, "fleet/home", 1)
		w.EndHome(ht)
		ht.durNS = int64(i%3) * 1e6
		if i == 10 {
			ht.durNS = 2e6
		}
		r.CommitHome(ht, i == 10)
	}
	s := r.Sched()
	if len(s.Phases) != 1 || s.Phases[0].Name != SpanSimulate {
		t.Errorf("Phases = %+v, want one simulate span", s.Phases)
	}
	if s.SlotWaits != 3 {
		t.Errorf("SlotWaits = %d, want 3 summed over two shards", s.SlotWaits)
	}
	if s.ShardHomes.N() != 2 || s.ShardHomes.Max() != 4 {
		t.Errorf("ShardHomes N=%d max=%v, want two shards of 4", s.ShardHomes.N(), s.ShardHomes.Max())
	}
	if s.HomeWallMS.N() != 11 || s.HomeWallMS.Max() != 2 {
		t.Errorf("wall N=%d max=%v, want 11 homes up to 2 ms", s.HomeWallMS.N(), s.HomeWallMS.Max())
	}
	var order []int
	for _, h := range s.SlowestHomes {
		order = append(order, h.Index)
	}
	if want := []int{2, 5, 8, 10, 1, 4, 7, 0}; !reflect.DeepEqual(order, want) {
		t.Errorf("slowest homes = %v, want %v", order, want)
	}
	r.CommitHome(w.StartHome(11, "fleet/home", 1), false)
	r.ObserveShard(1, 1)
	if s.HomeWallMS.N() != 11 || s.ShardHomes.N() != 2 || s.SlotWaits != 3 {
		t.Errorf("a later observation reached the copied view")
	}
}

// TestTallies checks the per-kind tallies telemetry folds at commit:
// every surface outcome counts but only anomalies enter the ring, a
// retry restarts the attempt's ring and tallies while faults and the
// attempt count carry over, and a tally-only handle keeps tallies but
// no ring.
func TestTallies(t *testing.T) {
	for _, tc := range []struct {
		name string
		w    *Worker
		ring bool
	}{
		{"recording", NewRecorder().NewWorker(), true},
		{"tally-only", NewTallyRecorder().NewWorker(), false},
	} {
		ht := tc.w.StartHome(0, "fleet/home/0", 1)
		ht.Fault("home.panic")
		ht.BinSimulated(0, 10)
		ht.Retry()
		ht.Fault("home.panic")
		ht.BinSimulated(0, 10)
		ht.BinSimulated(1, 10)
		ht.SurfaceOutcome(0, surface.OutcomeHit)
		ht.SurfaceOutcome(1, surface.OutcomeHit)
		ht.SurfaceOutcome(1, surface.OutcomeExact)
		ht.SurfaceOutcome(1, surface.OutcomeGuardBand)
		ht.Boot(1)
		ht.Brownout(1)
		want := Tally{Bins: 2, SurfaceHits: 2, SurfaceExact: 1, SurfaceGuard: 1,
			Boots: 1, Brownouts: 1, Faults: 2, Attempts: 2}
		if got := ht.Tally(); got != want {
			t.Errorf("%s: Tally = %+v, want %+v", tc.name, got, want)
		}
		d := ht.Dump()
		if !tc.ring {
			if d != nil || ht.Events() != 0 {
				t.Errorf("%s: tally-only handle kept events: %+v", tc.name, d)
			}
			continue
		}
		// retry, fault, 2 bin-sims, exact, guard, boot, brownout.
		if len(d.Events) != 8 || d.Events[0].Kind != "retry" || d.Events[0].Arg != 2 {
			t.Errorf("%s: ring = %+v, want the second attempt's 8 events opening with retry 2", tc.name, d.Events)
		}
		if e := d.Events[4]; e.Kind != "surface-exact" || e.Bin != 1 {
			t.Errorf("%s: surface event = %+v, want surface-exact on bin 1", tc.name, e)
		}
	}
}

// TestRingWrap checks the flight recorder's fixed-size ring: the newest
// RingCap events survive oldest-first, the remainder is counted as
// dropped.
func TestRingWrap(t *testing.T) {
	r := NewRecorder()
	w := r.NewWorker()
	ht := w.StartHome(0, "fleet/home/0", 1)
	const n = DefaultRingCap + 10
	for bin := 0; bin < n; bin++ {
		ht.BinSimulated(bin, uint64(bin))
	}
	if got := ht.Events(); got != n {
		t.Fatalf("Events() = %d, want %d", got, n)
	}
	d := ht.Dump()
	if d.Dropped != n-DefaultRingCap {
		t.Fatalf("Dropped = %d, want %d", d.Dropped, n-DefaultRingCap)
	}
	if len(d.Events) != DefaultRingCap {
		t.Fatalf("len(Events) = %d, want %d", len(d.Events), DefaultRingCap)
	}
	for i, e := range d.Events {
		if want := i + (n - DefaultRingCap); e.Bin != want {
			t.Fatalf("ring[%d].Bin = %d, want %d (oldest-first)", i, e.Bin, want)
		}
	}
}

// TestStableNames pins the serialized reason and kind codes: reports
// and CI assertions key on these strings.
func TestStableNames(t *testing.T) {
	reasons := map[EscReason]string{
		EscConsensusSplit: "consensus-split",
		EscGuardDisagree:  "guard-disagree",
		EscOccFitUnstable: "occ-fit-unstable",
	}
	for r, want := range reasons {
		if got := r.String(); got != want {
			t.Errorf("EscReason(%d).String() = %q, want %q", r, got, want)
		}
	}
	kinds := map[EventKind]string{
		EvBinSim: "bin-sim", EvSurfaceExact: "surface-exact",
		EvSurfaceGuard: "surface-guard", EvOccFit: "occ-fit",
		EvHarvestFit: "harvest-fit", EvGuardQuery: "guard-query",
		EvEscalate: "escalate", EvBoot: "boot", EvBrownout: "brownout",
		EvFault: "fault", EvRetry: "retry", EvQuarantine: "quarantine",
	}
	for k, want := range kinds {
		if got := k.String(); got != want {
			t.Errorf("EventKind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

// TestEventDetails checks the kind-specific serialization: escalations
// carry their reason code, channel fits their channel.
func TestEventDetails(t *testing.T) {
	r := NewRecorder()
	ht := r.NewWorker().StartHome(0, "fleet/home/0", 1)
	ht.Escalate(7, EscOccFitUnstable)
	ht.OccFit(2, 0.25)
	ht.Fault("home.slow")
	ev := ht.Dump().Events
	if ev[0].Detail != "occ-fit-unstable" || ev[0].Bin != 7 {
		t.Fatalf("escalate record = %+v", ev[0])
	}
	if ev[1].Detail != "ch2" || ev[1].Arg != 0.25 {
		t.Fatalf("occ-fit record = %+v", ev[1])
	}
	if ev[2].Detail != "home.slow" {
		t.Fatalf("fault record = %+v", ev[2])
	}
}

// TestInsertTop checks the bounded sorted insert used for retention.
func TestInsertTop(t *testing.T) {
	less := func(a, b *HomeTrace) bool {
		if a.escTotal != b.escTotal {
			return a.escTotal > b.escTotal
		}
		return a.idx < b.idx
	}
	var top []*HomeTrace
	for _, h := range []*HomeTrace{
		{idx: 0, escTotal: 2}, {idx: 1, escTotal: 9},
		{idx: 2, escTotal: 5}, {idx: 3, escTotal: 9}, {idx: 4, escTotal: 1},
	} {
		top = InsertTop(top, h, 3, less)
	}
	got := []int{top[0].idx, top[1].idx, top[2].idx}
	// 9s first (tie to lower index), then the 5; the 2 and 1 fall off.
	if want := []int{1, 3, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("insertTop order = %v, want %v", got, want)
	}
}

// TestSummaryRetention checks the deterministic aggregates and the
// retention policy: failed homes always retained, survivors by
// escalation count, everything in home-index order.
func TestSummaryRetention(t *testing.T) {
	r := NewRecorder()
	r.topK = 2
	w := r.NewWorker()

	mk := func(idx, escBins int, reason EscReason) *HomeTrace {
		ht := w.StartHome(idx, "fleet/home/"+string(rune('0'+idx)), 1)
		ht.BinSimulated(0, 10)
		for b := 0; b < escBins; b++ {
			ht.Escalate(b, reason)
		}
		w.EndHome(ht)
		return ht
	}
	r.CommitHome(mk(0, 3, EscGuardDisagree), false)
	r.CommitHome(mk(1, 0, 0), false)
	r.CommitHome(mk(2, 5, EscConsensusSplit), false)
	r.CommitHome(mk(3, 4, EscOccFitUnstable), false)
	failed := mk(4, 0, 0)
	failed.Quarantine()
	r.CommitHome(failed, true)

	s := r.Summary()
	if s.HomesTraced != 5 {
		t.Fatalf("HomesTraced = %d, want 5", s.HomesTraced)
	}
	if s.EscalatedBins != 12 {
		t.Fatalf("EscalatedBins = %d, want 12", s.EscalatedBins)
	}
	want := map[string]uint64{"consensus-split": 5, "guard-disagree": 3, "occ-fit-unstable": 4}
	if !reflect.DeepEqual(s.EscalationReasons, want) {
		t.Fatalf("EscalationReasons = %v, want %v", s.EscalationReasons, want)
	}
	// topK=2 keeps homes 2 and 3; home 4 failed; index order.
	if len(s.Retained) != 3 {
		t.Fatalf("Retained = %+v, want 3 homes", s.Retained)
	}
	for i, want := range []struct {
		idx int
		why string
	}{{2, "escalations"}, {3, "escalations"}, {4, "failed"}} {
		if s.Retained[i].Index != want.idx || s.Retained[i].Retained != want.why {
			t.Fatalf("Retained[%d] = {%d %q}, want {%d %q}",
				i, s.Retained[i].Index, s.Retained[i].Retained, want.idx, want.why)
		}
	}
	if s.Sched == nil || s.Sched.HomeWallMS.N != 5 {
		t.Fatalf("Sched = %+v, want wall N=5", s.Sched)
	}
}

// TestDominantSpan checks the wall-time attribution used by the slow
// homes tables.
func TestDominantSpan(t *testing.T) {
	cases := []struct {
		dur, kernel, stall int64
		want               string
	}{
		{100, 80, 0, "bin-batch"},
		{100, 10, 70, "stall"},
		{100, 10, 10, "other"},
	}
	for _, c := range cases {
		if got := DominantSpan(c.dur, c.kernel, c.stall); got != c.want {
			t.Errorf("DominantSpan(wall=%d kernel=%d stall=%d) = %q, want %q",
				c.dur, c.kernel, c.stall, got, c.want)
		}
	}
}

// TestWriteChrome checks the export is valid Chrome trace-event JSON
// with the expected span and instant structure; a nil recorder emits an
// empty-but-valid trace.
func TestWriteChrome(t *testing.T) {
	r := NewRecorder()
	end := r.Span(SpanRun)
	w := r.NewWorker()
	ht := w.StartHome(0, "fleet/home/0", 1)
	ht.BeginKernel()
	ht.BinSimulated(2, 50)
	time.Sleep(time.Millisecond)
	ht.EndKernel()
	w.EndHome(ht)
	r.CommitHome(ht, true) // failed → retained → ring instants exported
	end()

	var buf bytes.Buffer
	if err := r.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	count := map[string]int{}
	for _, e := range tr.TraceEvents {
		count[e.Ph+":"+e.Name]++
	}
	for _, want := range []string{"X:run", "X:home", "X:bin-batch", "i:bin-sim", "i:flight_recorder", "M:process_name", "M:thread_name"} {
		if count[want] == 0 {
			t.Errorf("export missing %q event (have %v)", want, count)
		}
	}

	buf.Reset()
	var nilRec *Recorder
	if err := nilRec.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("nil-recorder export is not valid JSON: %v", err)
	}
}

package trace

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"
)

// raceEnabled is set in race builds (race_test.go).
var raceEnabled bool

// checkChromeMatchesRef requires the streamed export's bytes to be the
// reference export's.
func checkChromeMatchesRef(t *testing.T, name string, r *Recorder) []byte {
	t.Helper()
	var got, want bytes.Buffer
	if err := r.WriteChrome(&got); err != nil {
		t.Fatalf("%s: WriteChrome: %v", name, err)
	}
	if err := r.writeChromeRef(&want); err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	if g, w := got.Bytes(), want.Bytes(); !bytes.Equal(g, w) {
		i := 0
		for i < min(len(g), len(w)) && g[i] == w[i] {
			i++
		}
		lo := max(0, i-80)
		t.Errorf("%s: export (%d bytes) differs from the reference (%d bytes) at byte %d:\n got …%s\nwant …%s",
			name, len(g), len(w), i, g[lo:min(len(g), i+80)], w[lo:min(len(w), i+80)])
	}
	return got.Bytes()
}

// overflowRecorder records a run whose home-span stream overflows
// maxSpans over two interleaved workers. Its homes carry stall and
// bin-batch spans; home 3 fails with a ring of every event shape (an
// arg in the encoder's exponent form, details that need escaping), and
// the last home fails past the cap, so its dump has no span to sit in.
func overflowRecorder() *Recorder {
	r := NewRecorder()
	endRun := r.Span(SpanRun)
	endSim := r.Span(SpanSimulate)
	ws := []*Worker{r.NewWorker(), r.NewWorker()}
	const homes = maxSpans/2 + 500
	for i := range homes {
		w := ws[i%2]
		ht := w.StartHome(i, "fleet/home", 1)
		switch i {
		case 3:
			ht.BinSimulated(0, 120)
			ht.OccFit(2, 1e-9)
			ht.HarvestFit(-0.25)
			ht.GuardQuery(1, false)
			ht.Escalate(1, EscGuardDisagree)
			// One byte the encoder escapes each, then non-ASCII.
			for _, site := range []string{"a<b", "a>b", "a&b", `a"b`, `a\b`, "a\tb", "ü", "\u2028"} {
				ht.Fault(site)
			}
			ht.Boot(-1)
		case homes - 1:
			ht.Fault("home.panic")
		}
		if i%3 == 0 {
			ht.Stall(1)
		}
		ht.BeginKernel()
		ht.EndKernel()
		w.EndHome(ht)
		r.CommitHome(ht, i == 3 || i == homes-1)
	}
	endSim()
	endRun()
	return r
}

// TestWriteChromeMatchesReference certifies the streamed Chrome export
// byte for byte against the reference export kept in
// chrome_ref_test.go: on a nil recorder, a tally-only one, and a run
// past maxSpans, which emits the spans_dropped instant. The fleet runs
// are certified in chrome_fleet_test.go.
func TestWriteChromeMatchesReference(t *testing.T) {
	checkChromeMatchesRef(t, "nil", nil)

	tally := NewTallyRecorder()
	end := tally.Span(SpanSimulate)
	w := tally.NewWorker()
	for i := range 4 {
		ht := w.StartHome(i, "fleet/home", 1)
		w.EndHome(ht)
		tally.CommitHome(ht, i == 2)
	}
	end()
	checkChromeMatchesRef(t, "tally-only", tally)

	r := overflowRecorder()
	if s := r.Summary(); s.Sched.SpansDropped == 0 || len(s.Retained) != 2 {
		t.Fatalf("overflow run: %d spans dropped, %d homes retained; want some and 2",
			s.Sched.SpansDropped, len(s.Retained))
	}
	out := checkChromeMatchesRef(t, "past maxSpans", r)
	for _, want := range []string{`"spans_dropped"`, `\u003c`, `"arg":1e-9`} {
		if !bytes.Contains(out, []byte(want)) {
			t.Errorf("past maxSpans: export lacks %s", want)
		}
	}
}

// TestWriteChromeStreams bounds what the Chrome export allocates, as
// TestReportWriteJSONStreams bounds the report: under a quarter of the
// document it writes. The reference, which builds every event before
// encoding them all at once, allocates about 13 times the document.
func TestWriteChromeStreams(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budget does not hold under the race detector")
	}
	r := overflowRecorder()
	var size int
	alloc := ^uint64(0)
	for range 3 {
		var cw countWriter
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if err := r.WriteChrome(&cw); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		size = int(cw)
		alloc = min(alloc, m1.TotalAlloc-m0.TotalAlloc)
	}
	t.Logf("%d-byte Chrome export, %d bytes allocated to write it", size, alloc)
	if alloc > uint64(size)/4 {
		t.Errorf("writing a %d-byte Chrome export allocated %d bytes, over a quarter of its size", size, alloc)
	}
}

type countWriter int

func (c *countWriter) Write(p []byte) (int, error) {
	*c += countWriter(len(p))
	return len(p), nil
}

// TestSpanStoreAllocs pins the home-span store's cost: 16,000 home
// spans take one allocation per 1,024-record chunk plus the chunk
// index, and little beyond the records' own bytes — no regrown and
// copied slice. Summary then builds its span list in one allocation
// and converts no intermediate copy of the stream.
func TestSpanStoreAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budget does not hold under the race detector")
	}
	const spans = 16_000
	// Two int64s, two int32s and a byte, padded to the int64 alignment:
	// the word size, so 32 bytes on 64-bit hosts and 28 on 386.
	word := unsafe.Sizeof(uintptr(0))
	if sz, want := unsafe.Sizeof(homeSpan{}), (2*8+2*4+1+word-1)/word*word; sz != want {
		t.Errorf("home-span record is %d bytes, want %d", sz, want)
	}
	// The counters are process-wide, so allocations from elsewhere in a
	// loaded process can land in the window: measure a fresh recorder
	// three times with the GC off and keep the fewest, as
	// TestFleetSteadyStateAllocs does.
	var r *Recorder
	appendSpans := func() (allocs, bytes uint64) {
		r = NewRecorder()
		w := r.NewWorker()
		ht := w.StartHome(0, "fleet/home", 1)
		ht.kernelNS = 1 // each EndHome appends a home and a bin-batch span
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for range spans / 2 {
			w.EndHome(ht)
		}
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc
	}
	allocs, bytes := appendSpans()
	for range 2 {
		a, b := appendSpans()
		allocs, bytes = min(allocs, a), min(bytes, b)
	}
	recBytes := uint64(spans * unsafe.Sizeof(homeSpan{}))
	t.Logf("%d home spans: %d allocations, %d bytes (records %d bytes)", spans, allocs, bytes, recBytes)
	if maxAllocs := uint64((spans+spanChunkLen-1)/spanChunkLen + 2); allocs > maxAllocs {
		t.Errorf("appending %d home spans allocated %d times, want at most %d", spans, allocs, maxAllocs)
	}
	if bytes > recBytes*11/10 {
		t.Errorf("appending %d home spans allocated %d bytes, over 1.1× the records' %d", spans, bytes, recBytes)
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s := r.Summary()
	runtime.ReadMemStats(&m1)
	list := uint64(cap(s.Sched.Spans)) * uint64(unsafe.Sizeof(SpanRecord{}))
	if len(s.Sched.Spans) != spans {
		t.Fatalf("Summary lists %d spans, want %d", len(s.Sched.Spans), spans)
	}
	// The list is a large object, rounded up to whole 8 KB pages; beyond
	// it, a summary of an unretaining run allocates a few small headers.
	if got := m1.TotalAlloc - m0.TotalAlloc; got > (list+8191)/8192*8192+1024 {
		t.Errorf("Summary allocated %d bytes for a %d-byte span list", got, list)
	}
	if cap(s.Sched.Spans) != spans {
		t.Errorf("Summary's span list has capacity %d, want exactly %d", cap(s.Sched.Spans), spans)
	}
}

package eventsim

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/xrand"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	s := New()
	var order []int
	s.At(30*time.Microsecond, func() { order = append(order, 3) })
	s.At(10*time.Microsecond, func() { order = append(order, 1) })
	s.At(20*time.Microsecond, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("execution order = %v, want [1 2 3]", order)
	}
}

func TestTieBreakIsInsertionOrder(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Millisecond, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break order broken at %d: %v", i, order)
		}
	}
}

func TestNowAdvances(t *testing.T) {
	s := New()
	var seen time.Duration
	s.At(42*time.Microsecond, func() { seen = s.Now() })
	s.Run()
	if seen != 42*time.Microsecond {
		t.Errorf("Now inside event = %v, want 42us", seen)
	}
	if s.Now() != 42*time.Microsecond {
		t.Errorf("final Now = %v, want 42us", s.Now())
	}
}

func TestAfterIsRelative(t *testing.T) {
	s := New()
	var at time.Duration
	s.At(100*time.Microsecond, func() {
		s.After(50*time.Microsecond, func() { at = s.Now() })
	})
	s.Run()
	if at != 150*time.Microsecond {
		t.Errorf("After fired at %v, want 150us", at)
	}
}

func TestPastSchedulingClampsToNow(t *testing.T) {
	s := New()
	var at time.Duration
	s.At(100*time.Microsecond, func() {
		s.At(10*time.Microsecond, func() { at = s.Now() })
	})
	s.Run()
	if at != 100*time.Microsecond {
		t.Errorf("past event fired at %v, want clamped to 100us", at)
	}
}

func TestCancelPreventsExecution(t *testing.T) {
	s := New()
	ran := false
	e := s.At(time.Millisecond, func() { ran = true })
	e.Cancel()
	if !e.Cancelled() {
		t.Error("Cancelled() should report true while the event is pending")
	}
	s.Run()
	if ran {
		t.Error("cancelled event still ran")
	}
}

func TestCancelAfterFireIsNoop(t *testing.T) {
	s := New()
	count := 0
	e := s.At(time.Millisecond, func() { count++ })
	s.Run()
	e.Cancel() // must not panic or change anything
	if count != 1 {
		t.Errorf("count = %d, want 1", count)
	}
}

func TestCancelShrinksPending(t *testing.T) {
	s := New()
	s.At(10*time.Microsecond, func() {})
	h := s.At(20*time.Microsecond, func() {})
	s.At(30*time.Microsecond, func() {})
	h.Cancel()
	if s.Pending() != 2 {
		t.Fatalf("pending after Cancel = %d, want 2", s.Pending())
	}
	h.Cancel() // a second Cancel must not remove anything else
	if s.Pending() != 2 {
		t.Fatalf("pending after repeated Cancel = %d, want 2", s.Pending())
	}
	if s.Scheduled() != 3 {
		t.Errorf("Scheduled = %d, want 3: cancelling does not rewind the sequence", s.Scheduled())
	}
}

// TestCancelInsideCallback cancels, from inside a running callback, the
// queue's head, its tail, a same-time sibling of the firing event and
// the firing event itself (a no-op: its handle went stale at pop).
func TestCancelInsideCallback(t *testing.T) {
	// Events a and b share 10 µs, c and d share 20 µs, e is last.
	names := []string{"a", "b", "c", "d", "e"}
	times := []time.Duration{10, 10, 20, 20, 30}
	for _, tc := range []struct {
		name              string
		canceller, victim int
		want              string
	}{
		{"head", 1, 2, "abde"},              // at b, the head is c
		{"tail", 0, 4, "abcd"},              // at a, the tail is e
		{"same-time sibling", 2, 3, "abce"}, // at c, d shares its time
		{"self", 2, 2, "abcde"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New()
			var fired string
			handles := make([]Handle, len(names))
			for i := range names {
				i := i
				handles[i] = s.At(times[i]*time.Microsecond, func() {
					fired += names[i]
					if i != tc.canceller {
						return
					}
					before := s.Pending()
					victim := handles[tc.victim]
					victim.Cancel()
					wantPending := before - 1
					if tc.victim == tc.canceller {
						wantPending = before
						if victim.Cancelled() {
							t.Error("a fired event reports Cancelled")
						}
					} else if !victim.Cancelled() {
						t.Error("cancelled victim does not report Cancelled")
					}
					if s.Pending() != wantPending {
						t.Errorf("pending after Cancel = %d, want %d", s.Pending(), wantPending)
					}
				})
			}
			s.Run()
			if fired != tc.want {
				t.Errorf("fired %q, want %q", fired, tc.want)
			}
		})
	}
}

// TestCancelledUntilSlotReuse pins Cancelled's documented meaning under
// eager removal: true from the Cancel until the scheduler hands the
// event's slot to a new scheduling, across a Run and a Reset.
func TestCancelledUntilSlotReuse(t *testing.T) {
	s := New()
	h := s.At(time.Millisecond, func() { t.Error("cancelled event ran") })
	h.Cancel()
	if !h.Cancelled() || h.At() != time.Millisecond {
		t.Fatalf("after Cancel: Cancelled=%v At=%v, want true, 1ms", h.Cancelled(), h.At())
	}
	s.Run()
	s.Reset()
	if !h.Cancelled() {
		t.Fatal("Cancelled went false before the slot was reused")
	}
	s.At(time.Millisecond, func() {}) // reuses the cancelled slot
	if h.Cancelled() || h.At() != 0 {
		t.Errorf("after reuse: Cancelled=%v At=%v, want false, 0", h.Cancelled(), h.At())
	}
}

// TestStaleCancelCannotRemoveReusedEvent: with eager removal, the
// generation check is what stops a stale Cancel from deleting whatever
// event now occupies the slot.
func TestStaleCancelCannotRemoveReusedEvent(t *testing.T) {
	s := New()
	h := s.At(time.Millisecond, func() {})
	h.Cancel()
	ran := false
	h2 := s.At(2*time.Millisecond, func() { ran = true })
	if h2.e != h.e {
		t.Fatal("the new event did not reuse the cancelled slot; the test exercises nothing")
	}
	h.Cancel()
	if s.Pending() != 1 || h2.Cancelled() {
		t.Fatalf("stale Cancel touched the reused slot: pending=%d, new Cancelled=%v", s.Pending(), h2.Cancelled())
	}
	s.Run()
	if !ran {
		t.Error("stale Cancel removed the event that reused its slot")
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	s := New()
	var fired []time.Duration
	for _, d := range []time.Duration{10, 20, 30, 40} {
		d := d * time.Millisecond
		s.At(d, func() { fired = append(fired, d) })
	}
	s.RunUntil(25 * time.Millisecond)
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if s.Now() != 25*time.Millisecond {
		t.Errorf("Now = %v, want exactly the deadline", s.Now())
	}
	// Remaining events still run on a later window.
	s.RunUntil(100 * time.Millisecond)
	if len(fired) != 4 {
		t.Errorf("after second window fired = %d, want 4", len(fired))
	}
}

func TestStopHaltsLoop(t *testing.T) {
	s := New()
	count := 0
	for i := 1; i <= 10; i++ {
		s.At(time.Duration(i)*time.Millisecond, func() {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	s.Run()
	if count != 3 {
		t.Errorf("count = %d, want 3 (stopped early)", count)
	}
	if s.Pending() != 7 {
		t.Errorf("pending = %d, want 7", s.Pending())
	}
}

func TestTicker(t *testing.T) {
	s := New()
	var times []time.Duration
	cancel := s.Ticker(10*time.Microsecond, func() {
		times = append(times, s.Now())
	})
	s.At(35*time.Microsecond, func() { cancel() })
	s.Run()
	want := []time.Duration{10 * time.Microsecond, 20 * time.Microsecond, 30 * time.Microsecond}
	if len(times) != len(want) {
		t.Fatalf("ticker fired %d times (%v), want %d", len(times), times, len(want))
	}
	for i := range want {
		if times[i] != want[i] {
			t.Errorf("tick %d at %v, want %v", i, times[i], want[i])
		}
	}
}

func TestTickerCancelInsideCallback(t *testing.T) {
	s := New()
	count := 0
	var cancel func()
	cancel = s.Ticker(time.Microsecond, func() {
		count++
		if count == 5 {
			cancel()
		}
	})
	s.Run()
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
}

func TestTickerPanicsOnNonPositiveInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New().Ticker(0, func() {})
}

func TestResetDrainsAndRewinds(t *testing.T) {
	s := New()
	ran := false
	s.At(10*time.Microsecond, func() { ran = true })
	s.At(20*time.Microsecond, func() { ran = true })
	s.Reset()
	if s.Pending() != 0 {
		t.Fatalf("pending after Reset = %d, want 0", s.Pending())
	}
	s.Run()
	if ran {
		t.Error("drained event still ran")
	}
	if s.Now() != 0 {
		t.Errorf("Now after Reset = %v, want 0", s.Now())
	}
	// A reset scheduler replays the same (time, seq) order from scratch.
	var order []int
	s.At(time.Millisecond, func() { order = append(order, 1) })
	s.At(time.Millisecond, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Errorf("post-Reset order = %v, want [1 2]", order)
	}
}

func TestStaleHandleCannotCancelRecycledEvent(t *testing.T) {
	s := New()
	h := s.At(time.Microsecond, func() {})
	s.Run() // fires and recycles the event
	ran := false
	s.At(time.Millisecond, func() { ran = true }) // reuses the slot
	h.Cancel()                                    // stale: must not touch the reused event
	if h.Cancelled() {
		t.Error("stale handle reports Cancelled")
	}
	if s.Pending() != 1 {
		t.Errorf("pending after stale Cancel = %d, want 1", s.Pending())
	}
	s.Run()
	if !ran {
		t.Error("stale Cancel killed a recycled event")
	}
}

func TestZeroHandleIsInert(t *testing.T) {
	var h Handle
	h.Cancel()
	if h.Cancelled() || h.At() != 0 {
		t.Error("zero Handle should be inert")
	}
}

// TestSteadyStateSchedulingIsAllocationFree pins the kernel's core
// contract: once the queue and free list have grown to a workload's
// high-water mark, scheduling, cancelling and firing events allocates
// nothing. Every firing also schedules a decoy and cancels it, the shape
// of a DCF station pausing its backoff on a busy edge.
func TestSteadyStateSchedulingIsAllocationFree(t *testing.T) {
	s := New()
	nop := func(any) {}
	var fire func(ctx any)
	fire = func(ctx any) {
		n := ctx.(*int)
		if *n > 0 {
			*n--
			decoy := s.AfterCtx(2*time.Microsecond, nop, nil)
			s.AfterCtx(time.Microsecond, fire, n)
			decoy.Cancel()
		}
	}
	n := 100
	s.AfterCtx(time.Microsecond, fire, &n)
	s.Run() // grow free list / queue
	allocs := testing.AllocsPerRun(10, func() {
		s.Reset()
		n = 100
		s.AfterCtx(time.Microsecond, fire, &n)
		s.Run()
	})
	if allocs > 0 {
		t.Errorf("steady-state kernel allocs/run = %v, want 0", allocs)
	}
}

// Property: with random schedule times, events always execute in
// non-decreasing time order and Now never goes backwards.
func TestMonotonicTimeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		s := New()
		var last time.Duration = -1
		ok := true
		for i := 0; i < 200; i++ {
			d := time.Duration(r.Intn(1000)) * time.Microsecond
			s.At(d, func() {
				if s.Now() < last {
					ok = false
				}
				last = s.Now()
				// Nested random scheduling.
				if r.Bool(0.3) {
					s.After(time.Duration(r.Intn(100))*time.Microsecond, func() {
						if s.Now() < last {
							ok = false
						}
						last = s.Now()
					})
				}
			})
		}
		s.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []time.Duration {
		r := xrand.New(99)
		s := New()
		var log []time.Duration
		var spawn func(depth int)
		spawn = func(depth int) {
			log = append(log, s.Now())
			if depth < 3 {
				n := r.Intn(3)
				for i := 0; i < n; i++ {
					s.After(time.Duration(r.Intn(50))*time.Microsecond, func() { spawn(depth + 1) })
				}
			}
		}
		for i := 0; i < 20; i++ {
			s.At(time.Duration(r.Intn(500))*time.Microsecond, func() { spawn(0) })
		}
		s.Run()
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// refEvent is one scheduling in the reference kernel. Schedulings are
// never recycled, so a reference handle cannot go stale in the way a
// pooled one can: it always refers to its own scheduling.
type refEvent struct {
	at   time.Duration
	seq  uint64
	fn   func()
	dead bool // fired, cancelled or drained by Reset
}

// refKernel is the reference the event queue is checked against: the
// kernel as it was before the sorted queue, a 4-ary min-heap on (time,
// sequence) with lazy cancellation. It lives only in this test.
type refKernel struct {
	now     time.Duration
	seq     uint64
	heap    []*refEvent
	live    int
	stopped bool
}

func refLess(a, b *refEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (k *refKernel) push(e *refEvent) {
	k.heap = append(k.heap, e)
	i := len(k.heap) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !refLess(k.heap[i], k.heap[p]) {
			break
		}
		k.heap[i], k.heap[p] = k.heap[p], k.heap[i]
		i = p
	}
}

func (k *refKernel) pop() *refEvent {
	h := k.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	k.heap = h
	i := 0
	for {
		min := i
		for c := 4*i + 1; c <= 4*i+4 && c < n; c++ {
			if refLess(h[c], h[min]) {
				min = c
			}
		}
		if min == i {
			return top
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

func (k *refKernel) Now() time.Duration { return k.now }
func (k *refKernel) Pending() int       { return k.live }
func (k *refKernel) Scheduled() uint64  { return k.seq }
func (k *refKernel) Stop()              { k.stopped = true }

func (k *refKernel) At(t time.Duration, fn func()) (cancel func()) {
	if t < k.now {
		t = k.now
	}
	e := &refEvent{at: t, seq: k.seq, fn: fn}
	k.seq++
	k.live++
	k.push(e)
	return func() {
		if !e.dead {
			e.dead = true
			k.live--
		}
	}
}

func (k *refKernel) Reset() {
	for _, e := range k.heap {
		e.dead = true
	}
	*k = refKernel{heap: k.heap[:0]}
}

// Run fires events until the heap empties or Stop; unlike RunUntil it
// leaves the clock at the last firing.
func (k *refKernel) Run() {
	k.stopped = false
	k.fireThrough(math.MaxInt64)
}

func (k *refKernel) RunUntil(deadline time.Duration) {
	k.stopped = false
	k.fireThrough(deadline)
	if !k.stopped && k.now < deadline {
		k.now = deadline
	}
}

// fireThrough pops and fires live events due by deadline, skipping
// lazily cancelled ones, until Stop.
func (k *refKernel) fireThrough(deadline time.Duration) {
	for len(k.heap) > 0 && !k.stopped && k.heap[0].at <= deadline {
		e := k.pop()
		if e.dead {
			continue
		}
		e.dead = true
		k.live--
		k.now = e.at
		e.fn()
	}
}

// kernelModel is the surface the differential replay drives: the
// Scheduler (through schedulerModel) and refKernel both provide it.
type kernelModel interface {
	Now() time.Duration
	At(t time.Duration, fn func()) (cancel func())
	RunUntil(deadline time.Duration)
	Run()
	Stop()
	Reset()
	Pending() int
	Scheduled() uint64
}

type schedulerModel struct{ *Scheduler }

func (m schedulerModel) At(t time.Duration, fn func()) func() {
	return m.Scheduler.At(t, fn).Cancel
}

// replayOps drives k with the operation trace encoded in ops and returns
// its log: every firing as (sequence, time), and the clock, Pending and
// Scheduled after every top-level operation. Each kernel reads the
// trace in its own firing order, so two kernels that fire identically
// consume it identically and any divergence shows in the logs.
//
// Top-level operations schedule (at -3..12 µs from Now: past times clamp
// and equal-time ties are common), cancel a handle (one of the last
// eight, or any: live, fired, cancelled or drained by Reset), run a
// RunUntil window, Run to empty, or Reset. Each firing callback may in
// turn schedule, cancel or Stop. A trace that runs out reads as zeros:
// no-op callbacks and a final drain.
func replayOps(k kernelModel, ops []byte) []string {
	pos := 0
	next := func() byte {
		if pos >= len(ops) {
			return 0
		}
		pos++
		return ops[pos-1]
	}
	var log []string
	var cancels []func()
	cancel := func(b byte) {
		n := len(cancels)
		if n == 0 {
			return
		}
		i := int(b&0x7f) % n
		if b&0x80 == 0 && n > 8 {
			i = n - 1 - int(b)%8
		}
		cancels[i]()
	}
	var schedule func(b byte)
	schedule = func(b byte) {
		seq := k.Scheduled()
		t := k.Now() + time.Duration(int(b%16)-3)*time.Microsecond
		cancels = append(cancels, k.At(t, func() {
			log = append(log, fmt.Sprintf("fire seq=%d at=%v", seq, k.Now()))
			switch next() % 6 {
			case 1, 2:
				schedule(next())
			case 3:
				cancel(next())
			case 4:
				k.Stop()
			}
		}))
	}
	for pos < len(ops) {
		switch next() % 8 {
		case 0, 1, 2:
			schedule(next())
		case 3, 4:
			cancel(next())
		case 5:
			k.RunUntil(k.Now() + time.Duration(next()%32)*time.Microsecond)
		case 6:
			k.Run()
		case 7:
			if next()%4 == 0 {
				k.Reset()
			}
		}
		log = append(log, fmt.Sprintf("now=%v pending=%d scheduled=%d", k.Now(), k.Pending(), k.Scheduled()))
	}
	for k.Pending() > 0 {
		k.Run()
	}
	return append(log, fmt.Sprintf("drained now=%v scheduled=%d", k.Now(), k.Scheduled()))
}

// checkAgainstReference replays ops on a fresh Scheduler and on the
// reference heap, fails at the first line where their logs differ, and
// returns the Scheduler's log.
func checkAgainstReference(t *testing.T, ops []byte) []string {
	t.Helper()
	got := replayOps(schedulerModel{New()}, ops)
	want := replayOps(&refKernel{}, ops)
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("log line %d: queue %q, reference heap %q", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("log length: queue %d, reference heap %d", len(got), len(want))
	}
	return got
}

func randomOps(seed uint64, n int) []byte {
	r := xrand.New(seed)
	ops := make([]byte, n)
	for i := range ops {
		ops[i] = byte(r.Intn(256))
	}
	return ops
}

// TestQueueMatchesReferenceHeap is the differential test: on recorded
// operation traces the sorted queue with eager cancellation fires the
// same (sequence, time) events, and reports the same Pending and
// Scheduled, as the 4-ary heap with lazy cancellation.
func TestQueueMatchesReferenceHeap(t *testing.T) {
	fires := 0
	for seed := uint64(1); seed <= 64; seed++ {
		for _, line := range checkAgainstReference(t, randomOps(seed, 3000)) {
			if strings.HasPrefix(line, "fire") {
				fires++
			}
		}
	}
	if fires < 10000 {
		t.Errorf("the traces fired only %d events; they exercise too little", fires)
	}
}

func FuzzKernelOrder(f *testing.F) {
	for seed := uint64(1); seed <= 4; seed++ {
		f.Add(randomOps(seed, 256))
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		checkAgainstReference(t, ops)
	})
}

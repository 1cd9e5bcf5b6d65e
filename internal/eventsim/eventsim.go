// Package eventsim implements the discrete-event simulation kernel that
// drives all protocol-level experiments.
//
// The whole simulator is single-threaded and deterministic: components
// schedule callbacks at future virtual times on a small sorted event
// queue, and the scheduler runs them in (time, sequence) order. Ties are
// broken by insertion order so that runs are reproducible bit-for-bit.
// Virtual time is a time.Duration measured from the start of the
// simulation; at 2.4 GHz Wi-Fi timescales (9 µs slots, 100 µs packets,
// 24 h deployments) nanosecond resolution in an int64 comfortably covers
// every experiment.
//
// The kernel is allocation-free in steady state: fired events are recycled
// through a per-scheduler free list, and the two-argument scheduling forms
// (AtCtx/AfterCtx) let hot-path components pass a long-lived callback plus
// a context word instead of allocating a fresh closure per event.
// Cancellation is eager: Cancel takes the event off the queue at once.
// Handles returned by the scheduling calls carry a generation number, so
// a stale Cancel on an already-recycled event is a guaranteed no-op.
package eventsim

import "time"

// Event is a scheduled callback, owned by its scheduler. Fired and
// cancelled events are recycled through the scheduler's free list, so
// components never hold a bare *Event — they hold a Handle, whose
// generation check makes use-after-recycle harmless.
type Event struct {
	key       queueEntry // queued (time, sequence) key; key.at is the fire time
	fn        func(ctx any)
	ctx       any
	owner     *Scheduler // the queue a Cancel removes the key from
	gen       uint64     // validates Handles; see recycle and schedule
	id        int32      // index in the scheduler's pool table
	cancelled bool
	next      *Event // free-list link
}

// Handle identifies one scheduling of an event. The zero Handle is valid
// and refers to nothing: Cancel on it is a no-op.
type Handle struct {
	e   *Event
	gen uint64
}

// Cancel removes the event from its scheduler's queue, so its callback
// never runs and Pending shrinks at once. Safe to call more than once,
// safe on the zero Handle, and safe after the event has fired (the
// generation check turns a stale cancel into a no-op, so it cannot
// remove a later event that reuses the slot).
//
//powifi:noalloc
func (h Handle) Cancel() {
	if e := h.e; e != nil && e.gen == h.gen && !e.cancelled {
		e.owner.cancel(e)
	}
}

// Cancelled reports whether Cancel has been called on this scheduling.
// It stays true until the scheduler reuses the cancelled event for a
// new scheduling. A fired event reports false (it can no longer be
// cancelled).
func (h Handle) Cancelled() bool {
	return h.e != nil && h.e.gen == h.gen && h.e.cancelled
}

// At returns the virtual time this scheduling fires at (or would have,
// if cancelled), or zero once the event has fired or its slot has been
// reused.
func (h Handle) At() time.Duration {
	if h.e == nil || h.e.gen != h.gen {
		return 0
	}
	return h.e.key.at
}

// queueEntry is one queued scheduling: the (time, sequence) sort key
// inline plus the pooled event's id, packed to 16 bytes. The queue holds
// plain values, so insertion shifts are pointer-free (no GC write
// barriers) and a queue of typical depth spans a few cache lines.
//
// seqid packs (seq << 32) | id: entries with equal times order by
// sequence (the id bits only break ties between equal sequences, which
// cannot occur — sequences are unique). The scheduler guards the 2³²
// sequence capacity per Reset with an explicit check.
type queueEntry struct {
	at    time.Duration
	seqid uint64
}

// eventQueue is a slice of entries kept sorted in descending (time,
// sequence) order, so the next event to fire is the last element and a
// pop is a single load. The kernel's queues are small — the paper
// experiments build at most 81 entries — and new events are mostly
// near-term (DIFS, backoff, end of transmission), so an insertion
// shifts only the few tail entries that fire sooner. At these depths
// that beats a heap, whose pop pays a mispredicted child scan per
// level. Pop order is structural: (time, seqid) is a total order
// (sequences are unique), so any correct queue fires events in the
// same order.
type eventQueue []queueEntry

// push inserts e, sliding the tail entries that fire before it up one
// slot each. e must carry the largest sequence yet queued — schedule
// hands out sequences in increasing order — so an entry fires before e
// exactly when its time is not later, and the key compare reduces to
// one time compare.
func (q *eventQueue) push(e queueEntry) {
	a := append(*q, e)
	i := len(a) - 1
	for i > 0 && a[i-1].at <= e.at {
		a[i] = a[i-1]
		i--
	}
	a[i] = e
	*q = a
}

// Scheduler is the simulation event loop. The zero value is ready to use.
type Scheduler struct {
	now     time.Duration
	seq     uint64
	events  eventQueue
	stopped bool
	free    *Event   // recycled events
	pool    []*Event // id → event, every event this scheduler ever made
}

// New returns a fresh scheduler with virtual time zero.
func New() *Scheduler { return &Scheduler{} }

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Duration { return s.now }

// callClosure invokes a nullary closure carried as the context word. It
// is the shared trampoline behind At/After, so the closure-taking API
// costs no allocation beyond the caller's own closure.
func callClosure(ctx any) { ctx.(func())() }

// schedule places a callback+context pair on the queue at absolute time
// t, recycling a free-listed event when one is available.
func (s *Scheduler) schedule(t time.Duration, fn func(ctx any), ctx any) Handle {
	if t < s.now {
		// Simulated hardware cannot act retroactively; clamping keeps
		// component math simple.
		t = s.now
	}
	e := s.free
	if e != nil {
		s.free = e.next
		e.next = nil
		if e.cancelled {
			// Cancel left the generation alone so Cancelled could keep
			// reporting true; reuse is where the old Handles go stale.
			e.gen++
			e.cancelled = false
		}
	} else {
		e = &Event{id: int32(len(s.pool)), owner: s}
		s.pool = append(s.pool, e)
	}
	if s.seq >= 1<<32 {
		// The packed queue key carries 32 sequence bits per Reset; at
		// realistic event rates this is years of simulated traffic.
		panic("eventsim: sequence counter exceeded 2^32; Reset the scheduler")
	}
	e.key = queueEntry{at: t, seqid: s.seq<<32 | uint64(uint32(e.id))}
	e.fn = fn
	e.ctx = ctx
	s.events.push(e.key)
	s.seq++
	return Handle{e: e, gen: e.gen}
}

// cancel takes a queued event off the queue and returns it to the free
// list. Its generation is left unchanged, so Cancelled keeps reporting
// true until schedule reuses the slot and bumps it. The entry is found by
// a scan from the tail: cancelled timers (DIFS, backoff, ACK timeout)
// are near-term, so they sit among the last few entries.
//
//powifi:noalloc
func (s *Scheduler) cancel(e *Event) {
	q := s.events
	i := len(q) - 1
	for q[i].seqid != e.key.seqid {
		i--
	}
	copy(q[i:], q[i+1:])
	s.events = q[:len(q)-1]
	e.cancelled = true
	e.next = s.free
	s.free = e
}

// recycle returns a popped event to the free list, invalidating any
// outstanding Handles to it. fn and ctx are deliberately left in place
// — the next schedule overwrites them, and skipping the clears keeps
// the recycle path to two stores (the stale references pin at most a
// free-list's worth of dead callbacks, which the pools above already
// keep alive anyway).
//
//powifi:noalloc
func (s *Scheduler) recycle(e *Event) {
	e.gen++
	e.next = s.free
	s.free = e
}

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past (t < Now) runs the event at the current time instead.
func (s *Scheduler) At(t time.Duration, fn func()) Handle {
	return s.schedule(t, callClosure, fn)
}

// After schedules fn to run d after the current virtual time.
func (s *Scheduler) After(d time.Duration, fn func()) Handle {
	return s.schedule(s.now+d, callClosure, fn)
}

// AtCtx schedules fn(ctx) at absolute virtual time t. Unlike At, it
// allocates nothing when fn is a long-lived func value and ctx is a
// pointer — the hot-path form for per-event callbacks.
//
//powifi:noalloc
func (s *Scheduler) AtCtx(t time.Duration, fn func(ctx any), ctx any) Handle {
	return s.schedule(t, fn, ctx)
}

// AfterCtx schedules fn(ctx) to run d after the current virtual time.
//
//powifi:noalloc
func (s *Scheduler) AfterCtx(d time.Duration, fn func(ctx any), ctx any) Handle {
	return s.schedule(s.now+d, fn, ctx)
}

// Stop halts the run loop after the currently executing event returns.
func (s *Scheduler) Stop() { s.stopped = true }

// Pending returns the number of events still queued. Cancel removes an
// event at once, so cancelled events are never counted.
func (s *Scheduler) Pending() int { return len(s.events) }

// Scheduled returns the number of events scheduled since the last
// Reset. Callers that Reset per simulation window read it as the
// window's kernel event count.
func (s *Scheduler) Scheduled() uint64 { return s.seq }

// Reset drains all queued events into the free list and rewinds the
// clock and sequence counter to zero, making the scheduler ready for a
// fresh run without releasing any of its memory. Outstanding Handles are
// invalidated by the drain.
//
//powifi:noalloc
func (s *Scheduler) Reset() {
	for _, entry := range s.events {
		s.recycle(s.pool[uint32(entry.seqid)])
	}
	s.events = s.events[:0]
	s.now = 0
	s.seq = 0
	s.stopped = false
}

// Run processes events until the queue empties or Stop is called.
//
//powifi:noalloc
func (s *Scheduler) Run() {
	s.stopped = false
	for len(s.events) > 0 && !s.stopped {
		s.step()
	}
}

// RunUntil processes events with time <= deadline, then advances the clock
// to exactly the deadline. Events scheduled beyond the deadline remain
// queued, so RunUntil can be called repeatedly to run a simulation in
// windows.
//
//powifi:noalloc
func (s *Scheduler) RunUntil(deadline time.Duration) {
	s.stopped = false
	for len(s.events) > 0 && !s.stopped && s.events[len(s.events)-1].at <= deadline {
		s.step()
	}
	if !s.stopped && s.now < deadline {
		s.now = deadline
	}
}

// step pops the earliest event off the queue's tail, recycles it and
// runs its callback.
//
//powifi:noalloc
func (s *Scheduler) step() {
	n := len(s.events) - 1
	entry := s.events[n]
	s.events = s.events[:n]
	e := s.pool[uint32(entry.seqid)]
	s.now = entry.at
	fn, ctx := e.fn, e.ctx
	// Recycle before running so the callback's own scheduling can reuse
	// the slot; the entry is already off the queue, so this is safe.
	s.recycle(e)
	fn(ctx)
}

// Ticker invokes fn every interval until cancelled, starting one interval
// from now. It returns a cancel function.
func (s *Scheduler) Ticker(interval time.Duration, fn func()) (cancel func()) {
	if interval <= 0 {
		panic("eventsim: non-positive ticker interval")
	}
	var ev Handle
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn()
		if !stopped {
			ev = s.After(interval, tick)
		}
	}
	ev = s.After(interval, tick)
	return func() {
		stopped = true
		ev.Cancel()
	}
}

// Package mac implements the 802.11 Distributed Coordination Function:
// CSMA/CA with DIFS sensing, binary-exponential backoff, unicast
// ACK/retransmission, broadcast transmission (no ACKs — the property
// PoWiFi's power packets rely on), and rate control.
//
// The DCF is the mechanism behind every networking result in the paper:
// queue-threshold prioritization (Fig. 6), per-channel occupancy (Figs. 5
// and 7), fairness to neighboring networks (Fig. 8) and the home
// deployment dynamics (Fig. 14) all emerge from stations contending under
// these rules.
package mac

import (
	"time"

	"repro/internal/eventsim"
	"repro/internal/medium"
	"repro/internal/phy"
	"repro/internal/xrand"
)

// Frame is a MAC-layer frame queued for transmission.
type Frame struct {
	// DstID is the destination station ID, or medium.Broadcast.
	DstID int
	// Bytes is the network-layer payload length; the MAC overhead is
	// added on the air.
	Bytes int
	// Kind classifies the frame (data, power, beacon).
	Kind medium.FrameKind
	// Payload is an opaque network-layer packet.
	Payload any
	// FixedRate forces a bit rate; zero uses the station's rate control.
	FixedRate phy.Rate

	retries int
}

type state int

const (
	stIdle state = iota
	stWaitDIFS
	stBackoff
	stTx
	stWaitAck
)

// Station is an 802.11 DCF station bound to one channel.
type Station struct {
	id    int
	name  string
	loc   medium.Location
	ch    *medium.Channel
	chIdx int // attachment index on ch (medium fast paths)
	sch   *eventsim.Scheduler
	rng   *xrand.Rand

	// TxPower and antenna configuration.
	PowerDBm float64
	GainDBi  float64

	// RateCtl chooses data rates; FixedRate on a frame overrides it.
	RateCtl RateController

	// Qdisc orders the transmit queue (the paper's qdepth threshold reads
	// this queue's length through the Power_MACshim). Defaults to a
	// 50-frame FIFO.
	Qdisc QueueDiscipline

	// IgnoreCS disables carrier sense and deferral, the §8(c) proposal
	// for concurrent power transmission by multiple PoWiFi routers:
	// collisions between power packets are acceptable because no client
	// needs to decode them.
	IgnoreCS bool

	// OnDeliver is called with every successfully received data frame
	// addressed to this station (or broadcast).
	OnDeliver func(f *Frame, from int)
	// OnSent is called when a queued frame leaves the MAC: ok=true after
	// a successful transmission (always true for broadcast), ok=false
	// after the retry limit.
	OnSent func(f *Frame, ok bool)

	st state

	cw            int
	slotsLeft     int
	ackBusyUntil  time.Duration
	backoffStart  time.Duration
	pendingAccess eventsim.Handle
	ackTimeout    eventsim.Handle
	current       *Frame
	currentTx     *medium.Transmission

	// Long-lived access-timer callbacks, bound once at construction so
	// the per-access scheduling in waitDIFS/resumeBackoff/transmit
	// allocates no closures and dispatches without the nullary-closure
	// trampoline (the DCF hot path fires these thousands of times per
	// sampled bin).
	difsFireFn    func(any)
	backoffFireFn func(any)
	ackBusyFn     func(any)
	ackTimeoutFn  func()
	// The two per-reception ACK callbacks, bound the same way: sendAckFn
	// takes the received *medium.Transmission as its context word
	// (pooled transmissions are only reused after a Reset, so it is
	// still intact SIFS later).
	sendAckFn    func(any)
	ackClearedFn func(any)

	// Frame pool: frames handed out by NewFrame are reused after Reset,
	// so steady-state traffic generation allocates nothing.
	framePool []*Frame
	frameNext int

	// Stats.
	TxFrames      int
	TxFailed      int
	RxFrames      int
	QueueDrops    int
	TxAirtimeData time.Duration
}

// NewStation creates a station and attaches it to the channel.
func NewStation(id int, name string, loc medium.Location, ch *medium.Channel, rng *xrand.Rand) *Station {
	s := &Station{
		id:       id,
		name:     name,
		loc:      loc,
		ch:       ch,
		sch:      ch.Sched,
		rng:      rng,
		PowerDBm: 20,
		GainDBi:  2,
		RateCtl:  FixedRate(phy.Rate54Mbps),
		Qdisc:    NewFIFO(50),
		cw:       phy.CWMin,
	}
	s.difsFireFn = func(any) {
		if s.slotsLeft > 0 {
			s.resumeBackoff()
		} else {
			s.transmit()
		}
	}
	s.backoffFireFn = func(any) {
		s.slotsLeft = 0
		s.transmit()
	}
	s.ackBusyFn = func(any) { s.waitDIFS() }
	s.ackTimeoutFn = s.onAckTimeout
	s.sendAckFn = func(ctx any) {
		tx := ctx.(*medium.Transmission)
		s.ch.StartTxFrom(s.chIdx, s, tx.Src.StationID(), phy.ACKBytes, phy.AckRate(tx.Rate), medium.KindAck, nil)
	}
	s.ackClearedFn = func(any) {
		if s.st == stWaitDIFS && !s.ch.SensesIdx(s.chIdx) {
			s.waitDIFS()
		}
	}
	s.chIdx = ch.AddStation(s)
	return s
}

// NewFrame returns a zeroed frame from the station's pool. Pooled frames
// are owned by the MAC until the next Reset, which makes them safe for
// any traffic source whose frames die within one sampled window (the
// deploy sampler's power packets, beacons, client and background load).
func (s *Station) NewFrame() *Frame {
	if s.frameNext < len(s.framePool) {
		f := s.framePool[s.frameNext]
		s.frameNext++
		*f = Frame{}
		return f
	}
	f := &Frame{}
	s.framePool = append(s.framePool, f)
	s.frameNext++
	return f
}

// Reset returns the station to its just-constructed state — idle, empty
// queue, minimum contention window, zeroed stats — while keeping its
// channel attachment, pools and callback bindings. The caller is
// responsible for reseeding the station's RNG stream; together the two
// steps make a pooled station bit-for-bit equivalent to a fresh one.
func (s *Station) Reset() {
	s.st = stIdle
	s.cw = phy.CWMin
	s.slotsLeft = 0
	s.ackBusyUntil = 0
	s.backoffStart = 0
	s.pendingAccess = eventsim.Handle{}
	s.ackTimeout = eventsim.Handle{}
	s.current = nil
	s.currentTx = nil
	s.frameNext = 0
	if r, ok := s.RateCtl.(interface{ Reset() }); ok {
		r.Reset()
	}
	s.TxFrames = 0
	s.TxFailed = 0
	s.RxFrames = 0
	s.QueueDrops = 0
	s.TxAirtimeData = 0
	if r, ok := s.Qdisc.(interface{ Reset() }); ok {
		r.Reset()
	}
}

// RNG returns the station's random stream, so a pooling layer can
// reseed it in place between runs.
func (s *Station) RNG() *xrand.Rand { return s.rng }

// StationID implements medium.Station.
func (s *Station) StationID() int { return s.id }

// Name returns the human-readable station name.
func (s *Station) Name() string { return s.name }

// Location implements medium.Station.
func (s *Station) Location() medium.Location { return s.loc }

// TxPowerDBm implements medium.Station.
func (s *Station) TxPowerDBm() float64 { return s.PowerDBm }

// AntennaGainDBi implements medium.Station.
func (s *Station) AntennaGainDBi() float64 { return s.GainDBi }

// QueueLen returns the number of frames waiting in the transmit queue
// (including the frame currently in service). This is what the paper's
// Power_MACshim exposes to the IP layer.
func (s *Station) QueueLen() int {
	n := s.Qdisc.Len()
	if s.current != nil {
		n++
	}
	return n
}

// Enqueue adds a frame to the transmit queue. It returns false (and drops
// the frame) when the queue discipline rejects it.
func (s *Station) Enqueue(f *Frame) bool {
	ok, due := s.EnqueueAt(f, s.sch.Now(), s.ch.SensesIdx(s.chIdx))
	s.armDIFS(due)
	return ok
}

// waitDIFS arms the DIFS timer if the channel is idle; otherwise the
// station stays deferring until OnChannelIdle re-arms it.
func (s *Station) waitDIFS() {
	s.armDIFS(s.enterDIFS(s.sch.Now(), s.ch.SensesIdx(s.chIdx)))
}

// armDIFS schedules the DIFS timer at due, the time a transition
// returned; a negative due arms nothing.
func (s *Station) armDIFS(due time.Duration) {
	if due >= 0 {
		s.pendingAccess = s.sch.AtCtx(due, s.difsFireFn, nil)
	}
}

// beginBackoff draws a fresh backoff and starts counting it down.
func (s *Station) beginBackoff() {
	s.slotsLeft = s.rng.Intn(s.cw + 1)
	s.waitDIFS()
}

// resumeBackoff counts down the remaining backoff slots while the channel
// stays idle.
func (s *Station) resumeBackoff() {
	s.pendingAccess = s.sch.AtCtx(s.startBackoff(s.sch.Now()), s.backoffFireFn, nil)
}

// pauseBackoff freezes the countdown when the channel goes busy.
func (s *Station) pauseBackoff() {
	s.cancelAccess()
	s.freeze(s.sch.Now())
}

// cancelAccess takes the pending DIFS or backoff timer off the queue.
func (s *Station) cancelAccess() {
	s.pendingAccess.Cancel()
	s.pendingAccess = eventsim.Handle{}
}

// OnChannelBusy implements medium.Station.
func (s *Station) OnChannelBusy() {
	if s.BusyAt(s.sch.Now()) {
		s.cancelAccess()
	}
}

// OnChannelIdle implements medium.Station.
func (s *Station) OnChannelIdle() {
	s.armDIFS(s.IdleAt(s.sch.Now()))
}

// rate returns the transmission rate for a frame.
func (s *Station) rate(f *Frame) phy.Rate {
	if f.FixedRate != 0 {
		return f.FixedRate
	}
	return s.RateCtl.DataRate()
}

// transmit puts the current frame on the air. During a post-transmission
// backoff the station may reach this point with no frame in hand; it picks
// up anything that arrived during the countdown or goes idle.
func (s *Station) transmit() {
	f := s.head()
	if f == nil {
		return
	}
	if now := s.sch.Now(); now < s.ackBusyUntil {
		// Our own control-ACK response is still on the air; a station
		// cannot transmit two frames at once.
		s.st = stWaitDIFS
		s.pendingAccess = s.sch.AtCtx(s.ackBusyUntil, s.ackBusyFn, nil)
		return
	}
	s.st = stTx
	rate := s.rate(f)
	s.currentTx = s.ch.StartTxFrom(s.chIdx, s, f.DstID, f.Bytes+phy.MACOverheadBytes, rate, f.Kind, f)
	s.TxFrames++
	s.TxAirtimeData += s.currentTx.Airtime()
}

// OnTxComplete implements medium.Station.
func (s *Station) OnTxComplete(tx *medium.Transmission) {
	if tx != s.currentTx {
		return // an ACK we sent on behalf of a reception
	}
	f := s.current
	if f.DstID == medium.Broadcast {
		// Broadcast frames are never acknowledged (footnote 1 in §3.2):
		// transmission is complete as soon as it is on the air.
		s.finishFrame(true)
		return
	}
	// Unicast: wait for the ACK.
	s.st = stWaitAck
	timeout := phy.SIFS + phy.AckAirtime(tx.Rate) + 2*phy.SlotTime
	s.ackTimeout = s.sch.After(timeout, s.ackTimeoutFn)
}

// onAckTimeout handles a missing ACK: exponential backoff and retry.
func (s *Station) onAckTimeout() {
	s.RateCtl.OnFailure()
	f := s.current
	f.retries++
	if f.retries > phy.MaxRetries {
		s.TxFailed++
		s.finishFrame(false)
		return
	}
	if s.cw < phy.CWMax {
		s.cw = s.cw*2 + 1
	}
	s.beginBackoff()
}

// finishFrame completes the life of the current frame and moves on.
func (s *Station) finishFrame(ok bool) {
	s.retire(ok)
	s.waitDIFS()
}

// The DCF's transitions, shared by the scheduler-driven callbacks above
// and by a caller that keeps the clock and the carrier sense itself (the
// deploy sampler's channel pass). Each takes the time now and, where
// the rule depends on it, whether the station senses the channel busy;
// where the callbacks would arm a timer, it returns the time the timer
// is due instead (negative when none is armed). The exported forms
// serve channels on which every station senses every other and every
// frame is broadcast: no two frames overlap and no ACK is exchanged.

// enterDIFS is waitDIFS's rule: the station waits for the channel to
// stay idle for DIFS from now. If it senses the channel busy, no timer
// is armed and the next idle edge restarts the wait.
func (s *Station) enterDIFS(now time.Duration, busy bool) time.Duration {
	s.st = stWaitDIFS
	if busy && !s.IgnoreCS {
		return -1
	}
	return now + phy.DIFS
}

// startBackoff is resumeBackoff's rule: the remaining slots count down
// from now.
func (s *Station) startBackoff(now time.Duration) time.Duration {
	s.st = stBackoff
	s.backoffStart = now
	return now + time.Duration(s.slotsLeft)*phy.SlotTime
}

// freeze is pauseBackoff's rule: a busy edge at now keeps the backoff
// slots not yet counted down, and the station defers.
func (s *Station) freeze(now time.Duration) {
	if s.st == stBackoff {
		elapsed := int((now - s.backoffStart) / phy.SlotTime)
		if elapsed > s.slotsLeft {
			elapsed = s.slotsLeft
		}
		s.slotsLeft -= elapsed
	}
	s.st = stWaitDIFS
}

// head returns the frame an expired access timer puts on the air: the
// one in hand or the queue's head. With neither the station goes idle.
func (s *Station) head() *Frame {
	if s.current == nil {
		s.current = s.Qdisc.Dequeue()
	}
	if s.current == nil {
		s.st = stIdle
	}
	return s.current
}

// retire completes the life of the current frame, takes the next one
// from the queue and draws the post-transmission backoff; the caller
// then waits DIFS.
func (s *Station) retire(ok bool) {
	f := s.current
	s.current = nil
	s.currentTx = nil
	s.cw = phy.CWMin
	if s.OnSent != nil {
		s.OnSent(f, ok)
	}
	// Mandatory post-transmission backoff (802.11 §10.3.4.3): the station
	// counts down a fresh contention window even when its queue is empty,
	// so a freshly arriving frame cannot seize the channel immediately
	// after the station's own transmission. This is what makes a
	// queue-depth threshold of 1 lose occupancy in Fig. 5: the injector
	// refills only after the in-service frame finishes, and the frame then
	// still has to win a full contention cycle.
	s.current = s.Qdisc.Dequeue()
	s.slotsLeft = s.rng.Intn(s.cw + 1)
}

// EnqueueAt is Enqueue at now, for a station that senses the channel
// busy or not: an idle station takes the frame in hand and waits DIFS.
func (s *Station) EnqueueAt(f *Frame, now time.Duration, busy bool) (ok bool, due time.Duration) {
	if !s.Qdisc.Enqueue(f) {
		s.QueueDrops++
		return false, -1
	}
	if s.st != stIdle {
		return true, -1
	}
	s.current = s.Qdisc.Dequeue() // an idle station holds no frame
	return true, s.enterDIFS(now, busy)
}

// BusyAt is OnChannelBusy at now: a station waiting out DIFS or a
// backoff freezes its countdown and reports true, and the caller
// disarms its access timer.
func (s *Station) BusyAt(now time.Duration) bool {
	if s.IgnoreCS || s.st != stWaitDIFS && s.st != stBackoff {
		return false
	}
	s.freeze(now)
	return true
}

// IdleAt is OnChannelIdle at now: a deferring station waits DIFS again.
func (s *Station) IdleAt(now time.Duration) (due time.Duration) {
	if s.st != stWaitDIFS {
		return -1
	}
	return s.enterDIFS(now, false)
}

// FireAt fires the access timer armed last, at its due time now: DIFS
// with backoff slots left starts the countdown, and DIFS without them or
// the countdown's end puts the head frame on the air. It returns the
// due time of the countdown's end or of the transmission's (negative
// when the station goes idle), and whether a transmission started. The
// caller sends busy edges to the other stations and ends the
// transmission with CompleteAt.
func (s *Station) FireAt(now time.Duration) (due time.Duration, onAir bool) {
	if s.st == stWaitDIFS && s.slotsLeft > 0 {
		return s.startBackoff(now), false
	}
	s.slotsLeft = 0
	f := s.head()
	if f == nil {
		return -1, false
	}
	s.st = stTx
	air := s.ch.Airtime(f.Bytes+phy.MACOverheadBytes, s.rate(f))
	s.TxFrames++
	s.TxAirtimeData += air
	return now + air, true
}

// CompleteAt ends the station's transmission at now, after the caller
// sent the idle edges: the frame retires and the station waits DIFS on
// the idle channel. It returns when that DIFS is due, and the frame's
// on-air length and rate as the medium reports them. Frames must be
// broadcast; CompleteAt panics on a unicast one, whose ACK exchange
// only the scheduler path models.
func (s *Station) CompleteAt(now time.Duration) (due time.Duration, bytes int, rate phy.Rate) {
	f := s.current
	if f.DstID != medium.Broadcast {
		panic("mac: CompleteAt ended a unicast frame")
	}
	bytes, rate = f.Bytes+phy.MACOverheadBytes, s.rate(f)
	s.retire(true)
	return s.enterDIFS(now, false), bytes, rate
}

// OnReceive implements medium.Station.
func (s *Station) OnReceive(tx *medium.Transmission, ok bool) {
	if !ok {
		return
	}
	switch tx.Kind {
	case medium.KindAck:
		if s.st == stWaitAck && s.current != nil {
			s.ackTimeout.Cancel()
			s.ackTimeout = eventsim.Handle{}
			s.RateCtl.OnSuccess()
			s.finishFrame(true)
		}
	default:
		s.RxFrames++
		if tx.DstID == s.id {
			// Acknowledge after SIFS, without carrier sense (per the
			// standard, control responses pre-empt contention).
			ackDur := phy.AckAirtime(tx.Rate)
			s.ackBusyUntil = s.sch.Now() + phy.SIFS + ackDur + time.Microsecond
			s.sch.AfterCtx(phy.SIFS, s.sendAckFn, tx)
			// A station cannot hear (or carrier-sense) its own control
			// response, so explicitly hold our DCF contention until the
			// ACK leaves the air; otherwise a zero-slot backoff would
			// transmit on top of our own in-flight ACK.
			if s.st == stWaitDIFS || s.st == stBackoff {
				s.pauseBackoff()
				s.sch.AfterCtx(phy.SIFS+ackDur+time.Microsecond, s.ackClearedFn, nil)
			}
		}
		if f, isFrame := tx.Payload.(*Frame); isFrame && s.OnDeliver != nil {
			s.OnDeliver(f, tx.Src.StationID())
		}
	}
}

package netstack

import (
	"time"

	"repro/internal/eventsim"
)

// TCP constants.
const (
	// MSS is the maximum segment size (Ethernet MTU minus headers).
	MSS = 1460
	// MinRTO is the conventional minimum retransmission timeout.
	MinRTO = 200 * time.Millisecond
	// DefaultRcvWnd is the receiver window in segments.
	DefaultRcvWnd = 128
)

// TCPSender is a Reno congestion-controlled sender. It transmits a
// bounded transfer (TotalBytes > 0, e.g. one web object) or runs
// indefinitely (TotalBytes == 0, e.g. iperf) until Stop.
type TCPSender struct {
	Sched *eventsim.Scheduler
	// Path carries data segments toward the receiver.
	Path Path
	// TotalBytes bounds the transfer; 0 means unbounded.
	TotalBytes int
	// RcvWnd caps the congestion window (receiver window), in segments.
	RcvWnd int
	// OnComplete fires when a bounded transfer is fully acknowledged.
	OnComplete func()

	cwnd      float64
	ssthresh  float64
	nextSeq   int
	sndUna    int
	dupAcks   int
	recover   int
	inFastRec bool

	srtt, rttvar, rto time.Duration
	rtoBackoff        int
	timer             eventsim.Handle
	sendTimes         map[int]time.Duration

	stopped    bool
	completed  bool
	totalSegs  int
	ackedBytes int
	startedAt  time.Duration

	receiverEndpoint Endpoint
}

// Start begins the transfer.
func (s *TCPSender) Start() {
	if s.RcvWnd == 0 {
		s.RcvWnd = DefaultRcvWnd
	}
	s.cwnd = 2
	s.ssthresh = float64(s.RcvWnd)
	s.rto = time.Second
	s.sendTimes = make(map[int]time.Duration)
	s.totalSegs = 0
	if s.TotalBytes > 0 {
		s.totalSegs = (s.TotalBytes + MSS - 1) / MSS
	}
	s.startedAt = s.Sched.Now()
	s.trySend()
}

// Stop halts an unbounded transfer.
func (s *TCPSender) Stop() {
	s.stopped = true
	s.cancelTimer()
}

// AckedBytes returns the cumulatively acknowledged byte count.
func (s *TCPSender) AckedBytes() int { return s.ackedBytes }

// ThroughputMbps returns goodput since Start.
func (s *TCPSender) ThroughputMbps() float64 {
	dur := (s.Sched.Now() - s.startedAt).Seconds()
	if dur <= 0 {
		return 0
	}
	return float64(s.ackedBytes) * 8 / dur / 1e6
}

// window returns the current send window in segments.
func (s *TCPSender) window() int {
	w := int(s.cwnd)
	if w > s.RcvWnd {
		w = s.RcvWnd
	}
	if w < 1 {
		w = 1
	}
	return w
}

// segBytes returns the payload size of segment seq.
func (s *TCPSender) segBytes(seq int) int {
	if s.totalSegs == 0 || seq < s.totalSegs-1 {
		return MSS
	}
	last := s.TotalBytes - (s.totalSegs-1)*MSS
	if last <= 0 {
		return MSS
	}
	return last
}

// trySend transmits as many new segments as the window allows.
func (s *TCPSender) trySend() {
	if s.stopped || s.completed {
		return
	}
	for s.nextSeq < s.sndUna+s.window() {
		if s.totalSegs > 0 && s.nextSeq >= s.totalSegs {
			break
		}
		s.sendSegment(s.nextSeq, false)
		s.nextSeq++
	}
	s.armTimer()
}

// sendSegment puts one segment on the path.
func (s *TCPSender) sendSegment(seq int, retransmit bool) {
	if !retransmit {
		s.sendTimes[seq] = s.Sched.Now()
	} else {
		delete(s.sendTimes, seq) // Karn: no RTT sample from retransmits
	}
	s.Path.Send(&Packet{
		Dst:        s.receiverEndpoint,
		Bytes:      s.segBytes(seq),
		Seq:        seq,
		Sent:       s.Sched.Now(),
		Retransmit: retransmit,
	})
}

// Connect wires a sender and receiver pair: data flows over dataPath to
// the receiver, acknowledgments flow over ackPath back to the sender.
func Connect(s *TCPSender, r *TCPReceiver, dataPath, ackPath Path) {
	s.Path = dataPath
	s.receiverEndpoint = r
	r.AckPath = ackPath
	r.sender = s
}

// Deliver implements Endpoint: the sender consumes acknowledgments.
func (s *TCPSender) Deliver(p *Packet) {
	if !p.Ack || s.stopped || s.completed {
		return
	}
	ack := p.AckSeq
	switch {
	case ack > s.sndUna:
		newly := ack - s.sndUna
		if t, exists := s.sendTimes[ack-1]; exists {
			s.sampleRTT(s.Sched.Now() - t)
		}
		for seq := s.sndUna; seq < ack; seq++ {
			s.ackedBytes += s.segBytes(seq)
			delete(s.sendTimes, seq)
		}
		s.sndUna = ack
		s.dupAcks = 0
		s.rtoBackoff = 0
		if s.inFastRec {
			if ack >= s.recover {
				s.inFastRec = false
				s.cwnd = s.ssthresh
			} else {
				// NewReno partial ACK: the window had multiple losses;
				// retransmit the next hole immediately and stay in fast
				// recovery rather than stalling until an RTO.
				s.sendSegment(s.sndUna, true)
				s.armTimer()
				return
			}
		} else if s.cwnd < s.ssthresh {
			s.cwnd += float64(newly) // slow start
		} else {
			s.cwnd += float64(newly) / s.cwnd // congestion avoidance
		}
		if s.totalSegs > 0 && s.sndUna >= s.totalSegs {
			s.complete()
			return
		}
		s.trySend()
	case ack == s.sndUna:
		s.dupAcks++
		if s.dupAcks == 3 && !s.inFastRec {
			// Fast retransmit + fast recovery.
			s.ssthresh = s.cwnd / 2
			if s.ssthresh < 2 {
				s.ssthresh = 2
			}
			s.cwnd = s.ssthresh
			s.inFastRec = true
			s.recover = s.nextSeq
			s.sendSegment(s.sndUna, true)
			s.armTimer()
		}
	}
}

// complete finishes a bounded transfer.
func (s *TCPSender) complete() {
	s.completed = true
	s.cancelTimer()
	if s.OnComplete != nil {
		s.OnComplete()
	}
}

// sampleRTT folds one RTT measurement into SRTT/RTTVAR (RFC 6298).
func (s *TCPSender) sampleRTT(rtt time.Duration) {
	if s.srtt == 0 {
		s.srtt = rtt
		s.rttvar = rtt / 2
	} else {
		diff := s.srtt - rtt
		if diff < 0 {
			diff = -diff
		}
		s.rttvar = (3*s.rttvar + diff) / 4
		s.srtt = (7*s.srtt + rtt) / 8
	}
	s.rto = s.srtt + 4*s.rttvar
	if s.rto < MinRTO {
		s.rto = MinRTO
	}
}

// armTimer (re)starts the retransmission timer.
func (s *TCPSender) armTimer() {
	s.cancelTimer()
	if s.sndUna == s.nextSeq {
		return // nothing outstanding
	}
	backoff := s.rto << s.rtoBackoff
	s.timer = s.Sched.After(backoff, s.onRTO)
}

func (s *TCPSender) cancelTimer() {
	s.timer.Cancel()
	s.timer = eventsim.Handle{}
}

// onRTO handles a retransmission timeout: multiplicative decrease to a
// window of one and go-back-N from the lowest unacknowledged segment.
func (s *TCPSender) onRTO() {
	if s.stopped || s.completed {
		return
	}
	s.ssthresh = s.cwnd / 2
	if s.ssthresh < 2 {
		s.ssthresh = 2
	}
	s.cwnd = 1
	s.dupAcks = 0
	s.inFastRec = false
	if s.rtoBackoff < 6 {
		s.rtoBackoff++
	}
	s.sendSegment(s.sndUna, true)
	s.armTimer()
}

// TCPReceiver acknowledges received segments cumulatively.
type TCPReceiver struct {
	Sched *eventsim.Scheduler
	// AckPath carries acknowledgments back to the sender.
	AckPath Path

	sender   *TCPSender
	expected int
	ooo      map[int]int // seq -> payload bytes, buffered out of order
	bytes    int
}

// Deliver implements Endpoint.
func (r *TCPReceiver) Deliver(p *Packet) {
	if r.ooo == nil {
		r.ooo = make(map[int]int)
	}
	if p.Seq == r.expected {
		r.expected++
		r.bytes += p.Bytes
		for {
			b, buffered := r.ooo[r.expected]
			if !buffered {
				break
			}
			delete(r.ooo, r.expected)
			r.bytes += b
			r.expected++
		}
	} else if p.Seq > r.expected {
		r.ooo[p.Seq] = p.Bytes
	}
	// Cumulative ACK on every received segment.
	r.AckPath.Send(&Packet{
		Dst:    r.sender,
		Ack:    true,
		AckSeq: r.expected,
		Sent:   r.Sched.Now(),
	})
}

// BytesReceived returns the in-order payload byte count.
func (r *TCPReceiver) BytesReceived() int { return r.bytes }

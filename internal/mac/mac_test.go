package mac

import (
	"testing"
	"time"

	"repro/internal/eventsim"
	"repro/internal/medium"
	"repro/internal/phy"
	"repro/internal/xrand"
)

// rig builds a channel with n stations placed a metre apart so that every
// station senses every other.
func rig(n int) (*eventsim.Scheduler, *medium.Channel, []*Station) {
	sch := eventsim.New()
	ch := medium.NewChannel(phy.Channel1, sch)
	stations := make([]*Station, n)
	for i := range stations {
		stations[i] = NewStation(i, "sta", medium.Location{X: float64(i)}, ch, xrand.NewFromLabel(42, string(rune('a'+i))))
	}
	return sch, ch, stations
}

func TestUnicastDeliveryWithAck(t *testing.T) {
	sch, ch, st := rig(2)
	delivered := 0
	st[1].OnDeliver = func(f *Frame, from int) {
		delivered++
		if from != 0 {
			t.Errorf("delivered from %d, want 0", from)
		}
	}
	sentOK := false
	st[0].OnSent = func(f *Frame, ok bool) { sentOK = ok }
	st[0].Enqueue(&Frame{DstID: 1, Bytes: 1500, Kind: medium.KindData})
	sch.Run()
	if delivered != 1 {
		t.Fatalf("delivered %d frames, want 1", delivered)
	}
	if !sentOK {
		t.Error("sender did not observe success")
	}
	// Exactly one data frame and one ACK on the air.
	if ch.TxCount[medium.KindData] != 1 || ch.TxCount[medium.KindAck] != 1 {
		t.Errorf("tx counts = %v", ch.TxCount)
	}
}

func TestBroadcastNoAck(t *testing.T) {
	sch, ch, st := rig(3)
	got := 0
	for _, s := range st[1:] {
		s := s
		s.OnDeliver = func(f *Frame, from int) { got++ }
	}
	st[0].Enqueue(&Frame{DstID: medium.Broadcast, Bytes: 1500, Kind: medium.KindPower})
	sch.Run()
	if got != 2 {
		t.Errorf("broadcast delivered to %d stations, want 2", got)
	}
	if ch.TxCount[medium.KindAck] != 0 {
		t.Error("broadcast must not be acknowledged (§3.2 footnote)")
	}
}

func TestQueueCapDropsExcess(t *testing.T) {
	_, _, st := rig(2)
	st[0].Qdisc = NewFIFO(5)
	accepted := 0
	for i := 0; i < 10; i++ {
		if st[0].Enqueue(&Frame{DstID: 1, Bytes: 100, Kind: medium.KindData}) {
			accepted++
		}
	}
	// One frame moves immediately into service, so 1 + 5 are accepted.
	if accepted != 6 {
		t.Errorf("accepted %d frames with cap 5, want 6", accepted)
	}
	if st[0].QueueDrops != 4 {
		t.Errorf("drops = %d, want 4", st[0].QueueDrops)
	}
}

func TestQueueLenCountsInService(t *testing.T) {
	_, _, st := rig(2)
	st[0].Enqueue(&Frame{DstID: 1, Bytes: 100, Kind: medium.KindData})
	st[0].Enqueue(&Frame{DstID: 1, Bytes: 100, Kind: medium.KindData})
	if got := st[0].QueueLen(); got != 2 {
		t.Errorf("QueueLen = %d, want 2 (1 in service + 1 queued)", got)
	}
}

func TestAllQueuedFramesEventuallySent(t *testing.T) {
	sch, _, st := rig(2)
	const n = 50
	done := 0
	st[0].OnSent = func(f *Frame, ok bool) {
		if ok {
			done++
		}
	}
	for i := 0; i < n; i++ {
		st[0].Enqueue(&Frame{DstID: 1, Bytes: 1500, Kind: medium.KindData})
	}
	sch.Run()
	if done != n {
		t.Errorf("sent %d/%d frames", done, n)
	}
}

func TestTwoContendersShareChannelFairly(t *testing.T) {
	sch, _, st := rig(2)
	sent := [2]int{}
	for i := 0; i < 2; i++ {
		i := i
		st[i].OnSent = func(f *Frame, ok bool) { sent[i]++ }
	}
	// Saturate both stations with broadcast traffic for one simulated
	// second (broadcast avoids ACK asymmetries in this fairness check).
	stop := false
	var feed func(i int)
	feed = func(i int) {
		if stop {
			return
		}
		st[i].Enqueue(&Frame{DstID: medium.Broadcast, Bytes: 1500, Kind: medium.KindData})
	}
	for i := 0; i < 2; i++ {
		i := i
		st[i].OnSent = func(f *Frame, ok bool) {
			sent[i]++
			feed(i)
		}
		for k := 0; k < 5; k++ {
			feed(i)
		}
	}
	sch.At(1*time.Second, func() { stop = true; sch.Stop() })
	sch.Run()
	total := sent[0] + sent[1]
	if total < 2000 {
		t.Fatalf("only %d frames in 1s of saturation; DCF stalled", total)
	}
	share := float64(sent[0]) / float64(total)
	if share < 0.40 || share > 0.60 {
		t.Errorf("station 0 share = %.2f, want about 0.5 (DCF fairness)", share)
	}
}

func TestSaturationThroughputPlausible(t *testing.T) {
	// A single saturated 54 Mbps broadcast sender should push roughly
	// 1500B / (DIFS + avg backoff + airtime) ≈ 3.4k frames/s, i.e. about
	// 40 Mbps of goodput — the right DCF efficiency ballpark for 802.11g.
	sch, _, st := rig(2)
	count := 0
	var feed func()
	feed = func() { st[0].Enqueue(&Frame{DstID: medium.Broadcast, Bytes: 1500, Kind: medium.KindData}) }
	st[0].OnSent = func(f *Frame, ok bool) {
		count++
		feed()
	}
	for i := 0; i < 3; i++ {
		feed()
	}
	sch.At(1*time.Second, func() { sch.Stop() })
	sch.Run()
	mbps := float64(count) * 1500 * 8 / 1e6
	if mbps < 30 || mbps > 45 {
		t.Errorf("saturation goodput = %.1f Mbps, want 30-45", mbps)
	}
}

func TestCollisionRetryEventuallyDelivers(t *testing.T) {
	// Force a synchronized collision: two senders queue at the same
	// instant; DCF backoff must eventually separate them and both
	// unicasts must deliver.
	sch, ch, st := rig(3)
	delivered := 0
	st[2].OnDeliver = func(f *Frame, from int) { delivered++ }
	st[0].Enqueue(&Frame{DstID: 2, Bytes: 1500, Kind: medium.KindData})
	st[1].Enqueue(&Frame{DstID: 2, Bytes: 1500, Kind: medium.KindData})
	sch.Run()
	if delivered != 2 {
		t.Errorf("delivered %d, want 2 (collision recovery)", delivered)
	}
	_ = ch
}

func TestDeferToOngoingTransmission(t *testing.T) {
	// A station that queues a frame mid-transmission must not start until
	// the channel clears: no collision should occur.
	sch, ch, st := rig(3)
	st[0].Enqueue(&Frame{DstID: medium.Broadcast, Bytes: 1500, Kind: medium.KindData})
	// Station 1 queues 50 µs into station 0's transmission.
	sch.At(50*time.Microsecond, func() {
		st[1].Enqueue(&Frame{DstID: medium.Broadcast, Bytes: 1500, Kind: medium.KindData})
	})
	sch.Run()
	if ch.Collisions != 0 {
		t.Errorf("collisions = %d, want 0 (carrier sense must defer)", ch.Collisions)
	}
}

func TestFixedRateController(t *testing.T) {
	r := FixedRate(phy.Rate54Mbps)
	if r.DataRate() != phy.Rate54Mbps {
		t.Error("FixedRate changed rate")
	}
	r.OnFailure()
	r.OnSuccess()
	if r.DataRate() != phy.Rate54Mbps {
		t.Error("FixedRate must ignore feedback")
	}
}

func TestARFStepsDownOnFailures(t *testing.T) {
	a := NewARF()
	if a.DataRate() != phy.Rate54Mbps {
		t.Fatalf("ARF should start at 54 Mbps, got %v", a.DataRate())
	}
	a.OnFailure()
	a.OnFailure()
	if a.DataRate() != phy.Rate48Mbps {
		t.Errorf("after 2 failures rate = %v, want 48 Mbps", a.DataRate())
	}
}

func TestARFStepsUpAfterSuccessStreak(t *testing.T) {
	a := NewARF()
	a.OnFailure()
	a.OnFailure() // down to 48
	for i := 0; i < 10; i++ {
		a.OnSuccess()
	}
	if a.DataRate() != phy.Rate54Mbps {
		t.Errorf("after 10 successes rate = %v, want back at 54", a.DataRate())
	}
}

func TestARFBoundedAtExtremes(t *testing.T) {
	a := NewARF()
	for i := 0; i < 100; i++ {
		a.OnFailure()
	}
	if a.DataRate() != phy.Rate6Mbps {
		t.Errorf("rate floor = %v, want 6 Mbps", a.DataRate())
	}
	for i := 0; i < 1000; i++ {
		a.OnSuccess()
	}
	if a.DataRate() != phy.Rate54Mbps {
		t.Errorf("rate ceiling = %v, want 54 Mbps", a.DataRate())
	}
}

func TestARFFailureResetsSuccessStreak(t *testing.T) {
	a := NewARF()
	a.OnFailure()
	a.OnFailure() // 48
	for i := 0; i < 9; i++ {
		a.OnSuccess()
	}
	a.OnFailure() // streak broken
	for i := 0; i < 9; i++ {
		a.OnSuccess()
	}
	if a.DataRate() != phy.Rate48Mbps {
		t.Errorf("rate = %v, want still 48 (streak was reset)", a.DataRate())
	}
}

// TestUnicastExchangeIsAllocationFree pins the receive path's ACK
// scheduling: once the pools are warm, a data frame, its ACK and the
// receiver's contention hold allocate nothing beyond the exchange's own
// transmissions, one medium.Transmission each (the SIFS-delayed ACK and
// the post-ACK resume are long-lived callbacks, not per-reception
// closures).
func TestUnicastExchangeIsAllocationFree(t *testing.T) {
	sch, ch, st := rig(2)
	onAir := func() (n int) {
		for _, c := range ch.TxCount {
			n += c
		}
		return n
	}
	acks, txs := 0, 0
	exchange := func() {
		sch.Reset()
		st[0].Reset()
		st[1].Reset()
		acksBefore, txsBefore := ch.TxCount[medium.KindAck], onAir()
		// The receiver is contending too, so the reception also takes
		// the pause-and-resume path around its own ACK.
		b := st[1].NewFrame()
		b.DstID, b.Bytes, b.Kind = medium.Broadcast, 100, medium.KindPower
		st[1].Enqueue(b)
		f := st[0].NewFrame()
		f.DstID, f.Bytes, f.Kind = 1, 1500, medium.KindData
		st[0].Enqueue(f)
		sch.Run()
		acks, txs = ch.TxCount[medium.KindAck]-acksBefore, onAir()-txsBefore
	}
	exchange() // warm the frame and event pools
	if acks == 0 {
		t.Fatal("the exchange sent no ACK; the test exercises nothing")
	}
	allocs := testing.AllocsPerRun(20, exchange)
	t.Logf("unicast exchange allocs/run = %v, transmissions/run = %d", allocs, txs)
	if allocs > float64(txs) {
		t.Errorf("unicast exchange allocs/run = %v, want at most its %d transmissions", allocs, txs)
	}
}

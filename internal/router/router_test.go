package router

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/eventsim"
	"repro/internal/mac"
	"repro/internal/medium"
	"repro/internal/phy"
)

// newRig builds three channel media and a router with the given scheme.
func newRig(scheme Scheme) (*eventsim.Scheduler, map[phy.Channel]*medium.Channel, *Router) {
	sched := eventsim.New()
	channels := make(map[phy.Channel]*medium.Channel, 3)
	for _, chNum := range phy.PoWiFiChannels {
		channels[chNum] = medium.NewChannel(chNum, sched)
	}
	cfg := DefaultConfig()
	cfg.Scheme = scheme
	return sched, channels, New(cfg, sched, channels, 100, 1)
}

func TestRouterCreatesRadioPerChannel(t *testing.T) {
	_, _, rt := newRig(PoWiFi)
	if len(rt.Radios) != 3 {
		t.Fatalf("radios = %d, want 3", len(rt.Radios))
	}
	for _, chNum := range phy.PoWiFiChannels {
		if rt.Radio(chNum) == nil {
			t.Errorf("missing radio on %v", chNum)
		}
	}
}

func TestBaselineInjectsNothing(t *testing.T) {
	sched, channels, rt := newRig(Baseline)
	rt.Start()
	sched.RunUntil(time.Second)
	for chNum, ch := range channels {
		if n := ch.TxCount[medium.KindPower]; n != 0 {
			t.Errorf("%v: baseline transmitted %d power packets", chNum, n)
		}
	}
}

func TestPoWiFiInjectsOnAllChannels(t *testing.T) {
	sched, channels, rt := newRig(PoWiFi)
	rt.Start()
	sched.RunUntil(time.Second)
	for chNum, ch := range channels {
		n := ch.TxCount[medium.KindPower]
		// A free channel should carry thousands of 54 Mbps power packets
		// per second.
		if n < 1500 {
			t.Errorf("%v: only %d power packets in 1 s", chNum, n)
		}
	}
}

func TestPoWiFiPowerPacketsAreBroadcast54Mbps(t *testing.T) {
	sched, channels, rt := newRig(PoWiFi)
	seen := 0
	channels[phy.Channel6].Observers = append(channels[phy.Channel6].Observers,
		func(tx *medium.Transmission) {
			if tx.Kind != medium.KindPower {
				return
			}
			seen++
			if tx.DstID != medium.Broadcast {
				t.Fatal("power packet was not broadcast")
			}
			if tx.Rate != phy.Rate54Mbps {
				t.Fatalf("power packet rate = %v, want 54 Mbps", tx.Rate)
			}
		})
	rt.Start()
	sched.RunUntil(100 * time.Millisecond)
	if seen == 0 {
		t.Fatal("no power packets observed")
	}
}

func TestBlindUDPUses1Mbps(t *testing.T) {
	sched, channels, rt := newRig(BlindUDP)
	var rates []phy.Rate
	channels[phy.Channel1].Observers = append(channels[phy.Channel1].Observers,
		func(tx *medium.Transmission) {
			if tx.Kind == medium.KindPower {
				rates = append(rates, tx.Rate)
			}
		})
	rt.Start()
	sched.RunUntil(200 * time.Millisecond)
	if len(rates) == 0 {
		t.Fatal("no BlindUDP packets observed")
	}
	for _, r := range rates {
		if r != phy.Rate1Mbps {
			t.Fatalf("BlindUDP rate = %v, want 1 Mbps", r)
		}
	}
}

func TestEqualShareUsesConfiguredRate(t *testing.T) {
	sched := eventsim.New()
	channels := map[phy.Channel]*medium.Channel{
		phy.Channel1: medium.NewChannel(phy.Channel1, sched),
	}
	cfg := DefaultConfig()
	cfg.Scheme = EqualShare
	cfg.Channels = []phy.Channel{phy.Channel1}
	cfg.EqualShareRate = phy.Rate18Mbps
	rt := New(cfg, sched, channels, 100, 1)
	if got := rt.Radio(phy.Channel1).Injector.Rate; got != phy.Rate18Mbps {
		t.Errorf("EqualShare injector rate = %v, want 18 Mbps", got)
	}
	// And the packets on the air carry that rate.
	var rates []phy.Rate
	channels[phy.Channel1].Observers = append(channels[phy.Channel1].Observers,
		func(tx *medium.Transmission) {
			if tx.Kind == medium.KindPower {
				rates = append(rates, tx.Rate)
			}
		})
	rt.Start()
	sched.RunUntil(50 * time.Millisecond)
	if len(rates) == 0 {
		t.Fatal("no EqualShare power packets observed")
	}
	for _, r := range rates {
		if r != phy.Rate18Mbps {
			t.Fatalf("on-air rate = %v, want 18 Mbps", r)
		}
	}
}

func TestIPPowerDropsWhenQueueFull(t *testing.T) {
	// Pre-fill the radio's queue with client traffic beyond the threshold:
	// the injector must drop at the IP layer, not enqueue.
	sched, _, rt := newRig(PoWiFi)
	radio := rt.Radio(phy.Channel1)
	for i := 0; i < 10; i++ {
		radio.MAC.Enqueue(&mac.Frame{DstID: medium.Broadcast, Bytes: 1500, Kind: medium.KindData})
	}
	radio.Injector.Start()
	// One immediate injection happens inside Start.
	if radio.Injector.DroppedByIPPower == 0 {
		t.Error("IP_Power did not drop with a deep queue")
	}
	if radio.Injector.Injected != 0 {
		t.Error("power packet entered a queue above the threshold")
	}
	_ = sched
}

func TestNoQueueSkipsTheCheck(t *testing.T) {
	sched, _, rt := newRig(NoQueue)
	radio := rt.Radio(phy.Channel1)
	for i := 0; i < 10; i++ {
		radio.MAC.Enqueue(&mac.Frame{DstID: medium.Broadcast, Bytes: 1500, Kind: medium.KindData})
	}
	radio.Injector.Start()
	sched.RunUntil(10 * time.Millisecond)
	if radio.Injector.DroppedByIPPower != 0 {
		t.Error("NoQueue must not drop at the IP layer")
	}
	if radio.Injector.Injected == 0 {
		t.Error("NoQueue injected nothing")
	}
}

func TestInjectorStopHalts(t *testing.T) {
	sched, _, rt := newRig(PoWiFi)
	rt.Start()
	sched.RunUntil(50 * time.Millisecond)
	rt.Stop()
	before := rt.Radio(phy.Channel1).Injector.Attempted
	sched.RunUntil(150 * time.Millisecond)
	after := rt.Radio(phy.Channel1).Injector.Attempted
	if after != before {
		t.Errorf("injector kept attempting after Stop: %d -> %d", before, after)
	}
}

func TestInjectorAccountingConsistent(t *testing.T) {
	sched, _, rt := newRig(PoWiFi)
	rt.Start()
	sched.RunUntil(500 * time.Millisecond)
	in := rt.Radio(phy.Channel6).Injector
	if in.Attempted != in.Injected+in.DroppedByIPPower {
		t.Errorf("accounting broken: attempted %d != injected %d + dropped %d",
			in.Attempted, in.Injected, in.DroppedByIPPower)
	}
}

func TestQueueThresholdBoundsQueueDepth(t *testing.T) {
	// With only power traffic, the radio's queue must never exceed the
	// threshold (5) by more than the in-service frame.
	sched, _, rt := newRig(PoWiFi)
	rt.Start()
	maxSeen := 0
	cancel := sched.Ticker(500*time.Microsecond, func() {
		if q := rt.Radio(phy.Channel1).MAC.QueueLen(); q > maxSeen {
			maxSeen = q
		}
	})
	sched.RunUntil(300 * time.Millisecond)
	cancel()
	if maxSeen > rt.Cfg.QueueDepthThreshold+1 {
		t.Errorf("queue reached %d, threshold is %d", maxSeen, rt.Cfg.QueueDepthThreshold)
	}
}

func TestSchemeStrings(t *testing.T) {
	cases := map[Scheme]string{
		Baseline: "Baseline", PoWiFi: "PoWiFi", NoQueue: "NoQueue",
		BlindUDP: "BlindUDP", EqualShare: "EqualShare",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
}

func TestOccupancySaturatesNearAirtimeRatio(t *testing.T) {
	// At 100 µs inter-packet delay on a free channel, a single radio's
	// occupancy (airtime fraction) should sit near the DCF limit for
	// back-to-back 54 Mbps frames, roughly 60-75%.
	sched, channels, rt := newRig(PoWiFi)
	rt.Start()
	sched.RunUntil(2 * time.Second)
	air := channels[phy.Channel6].TxAirtime[medium.KindPower]
	frac := float64(air) / float64(2*time.Second)
	if frac < 0.5 || frac > 0.8 {
		t.Errorf("power airtime fraction = %.2f, want 0.5-0.8", frac)
	}
}

func TestBeaconsTransmittedUnderEveryScheme(t *testing.T) {
	for _, scheme := range []Scheme{Baseline, PoWiFi} {
		sched, channels, rt := newRig(scheme)
		rt.Start()
		sched.RunUntil(time.Second)
		// 102.4 ms beacon interval: expect about 9-10 beacons per second
		// per radio.
		n := channels[phy.Channel1].TxCount[medium.KindBeacon]
		if n < 8 || n > 11 {
			t.Errorf("%v: %d beacons in 1 s, want about 9", scheme, n)
		}
	}
}

func TestStopHaltsBeacons(t *testing.T) {
	sched, channels, rt := newRig(Baseline)
	rt.Start()
	sched.RunUntil(500 * time.Millisecond)
	rt.Stop()
	before := channels[phy.Channel1].TxCount[medium.KindBeacon]
	sched.RunUntil(1500 * time.Millisecond)
	after := channels[phy.Channel1].TxCount[medium.KindBeacon]
	if after > before {
		t.Errorf("beacons continued after Stop: %d -> %d", before, after)
	}
}

// TestStartRadioIsolated runs one radio's start-up alone and checks that
// no other radio moved: its injector made no attempt, its MAC sent no
// frame and its beacon was never armed.
func TestStartRadioIsolated(t *testing.T) {
	for i, chNum := range phy.PoWiFiChannels {
		sched, _, rt := newRig(PoWiFi)
		rt.StartRadio(i)
		sched.RunUntil(300 * time.Millisecond)
		for j, other := range rt.radios {
			if j == i {
				if other.Injector.Attempted == 0 || other.MAC.TxFrames == 0 || !other.beaconOn {
					t.Errorf("StartRadio(%d) left %v idle", i, chNum)
				}
				continue
			}
			if other.Injector.Attempted != 0 || other.MAC.TxFrames != 0 ||
				other.beaconOn || other.beaconEv != (eventsim.Handle{}) {
				t.Errorf("StartRadio(%d) moved %v: attempted %d, tx frames %d, beacon on %v",
					i, other.Channel, other.Injector.Attempted, other.MAC.TxFrames, other.beaconOn)
			}
		}
	}
}

// startAllRadios is the reference Start is certified against: one loop
// arming each radio's beacons, then its injector, with no per-radio
// entry point in between.
func startAllRadios(r *Router) {
	for _, radio := range r.radios {
		radio.startBeacons(r.Cfg.BeaconInterval)
		if r.Cfg.Scheme != Baseline {
			radio.Injector.Start()
		}
	}
}

// TestStartMatchesReference checks that Start, a loop over
// StartRadio, schedules the same events as the reference: per radio the
// same beacon and injector fire times, the same number of events at
// start-up, then the same transmissions in the same order across all
// three channels, so equal-time ties (the beacons) fire in the same
// sequence order.
func TestStartMatchesReference(t *testing.T) {
	type txRecord struct {
		ch    phy.Channel
		start time.Duration
		kind  medium.FrameKind
	}
	type trace struct {
		kickoff          []time.Duration // per radio: beacon, then injector
		startup, running uint64          // events scheduled by start and by the run
		log              []txRecord
	}
	run := func(scheme Scheme, start func(*Router)) (tr trace) {
		sched, channels, rt := newRig(scheme)
		for _, chNum := range phy.PoWiFiChannels {
			ch := chNum
			channels[ch].Observers = append(channels[ch].Observers, func(tx *medium.Transmission) {
				tr.log = append(tr.log, txRecord{ch, tx.Start, tx.Kind})
			})
		}
		start(rt)
		for _, radio := range rt.radios {
			tr.kickoff = append(tr.kickoff, radio.beaconEv.At(), radio.Injector.stopEv.At())
		}
		tr.startup = sched.Scheduled()
		sched.RunUntil(250 * time.Millisecond)
		tr.running = sched.Scheduled() - tr.startup
		return tr
	}
	for _, scheme := range []Scheme{Baseline, PoWiFi} {
		want := run(scheme, startAllRadios)
		got := run(scheme, (*Router).Start)
		if fmt.Sprint(got.kickoff) != fmt.Sprint(want.kickoff) {
			t.Errorf("%v: kick-off times %v, reference %v", scheme, got.kickoff, want.kickoff)
		}
		if got.startup != want.startup || got.running != want.running || len(got.log) != len(want.log) {
			t.Fatalf("%v: %d+%d events and %d transmissions, reference %d+%d and %d", scheme,
				got.startup, got.running, len(got.log), want.startup, want.running, len(want.log))
		}
		for k := range got.log {
			if got.log[k] != want.log[k] {
				t.Fatalf("%v: transmission %d is %+v, reference %+v", scheme, k, got.log[k], want.log[k])
			}
		}
	}
}

package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/eventsim"
	"repro/internal/medium"
	"repro/internal/monitor"
	"repro/internal/phy"
	"repro/internal/router"
	"repro/internal/traffic"
	"repro/internal/units"
	"repro/internal/xrand"
)

// energyProbe integrates incident RF power at a point, implementing
// medium.PowerProbe. It is the instrument for the §8 extension studies.
type energyProbe struct {
	sched   *eventsim.Scheduler
	loc     medium.Location
	gainDBi float64

	currentW float64
	lastAt   time.Duration
	energyJ  float64
}

func (p *energyProbe) ProbeLocation() medium.Location { return p.loc }
func (p *energyProbe) ProbeGainDBi() float64          { return p.gainDBi }
func (p *energyProbe) ExtraLossDB() float64           { return 0 }

func (p *energyProbe) OnIncidentPower(w float64) {
	now := p.sched.Now()
	p.energyJ += p.currentW * (now - p.lastAt).Seconds()
	p.currentW = w
	p.lastAt = now
}

// averageW returns the mean incident power over [0, now].
func (p *energyProbe) averageW() float64 {
	p.OnIncidentPower(p.currentW) // flush the open interval
	total := p.sched.Now().Seconds()
	if total <= 0 {
		return 0
	}
	return p.energyJ / total
}

// MultiRouterResult is the §8(c) extension: what happens when several
// PoWiFi routers serve the same space. Under plain CSMA they
// time-multiplex the channel, capping the cumulative power traffic; with
// carrier sense disabled for power packets they transmit concurrently —
// collisions are harmless because nothing decodes power packets — and the
// delivered power scales with the router count.
type MultiRouterResult struct {
	// AvgIncidentUW is the mean incident power (µW) at a device 10 ft
	// from the routers, per configuration.
	SingleUW, CSMAUW, ConcurrentUW float64
}

// RunExtMultiRouter measures incident power at 10 ft on channel 6 for one
// router, two CSMA routers, and two concurrent (CS-disabled) routers.
func RunExtMultiRouter(perRun time.Duration, seed uint64) *MultiRouterResult {
	run := func(routers int, ignoreCS bool) float64 {
		sched := eventsim.New()
		ch := medium.NewChannel(phy.Channel6, sched)
		channels := map[phy.Channel]*medium.Channel{phy.Channel6: ch}
		probe := &energyProbe{
			sched:   sched,
			loc:     medium.Location{X: units.FeetToMeters(10)},
			gainDBi: 2,
		}
		ch.AddProbe(probe)
		for i := 0; i < routers; i++ {
			cfg := router.DefaultConfig()
			cfg.Channels = []phy.Channel{phy.Channel6}
			// Both routers sit within a metre of each other.
			cfg.Location = medium.Location{Y: float64(i) * 0.5}
			rt := router.New(cfg, sched, channels, 100+10*i, seed+uint64(i))
			rt.Radio(phy.Channel6).MAC.IgnoreCS = ignoreCS
			rt.Start()
		}
		sched.RunUntil(perRun)
		return units.Microwatts(probe.averageW())
	}
	return &MultiRouterResult{
		SingleUW:     run(1, false),
		CSMAUW:       run(2, false),
		ConcurrentUW: run(2, true),
	}
}

// WriteTable prints the comparison.
func (r *MultiRouterResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "one router:              %6.1f µW at 10 ft\n", r.SingleUW)
	fmt.Fprintf(w, "two routers, CSMA:       %6.1f µW (time-multiplexed: %+.0f%%)\n",
		r.CSMAUW, (r.CSMAUW/r.SingleUW-1)*100)
	fmt.Fprintf(w, "two routers, concurrent: %6.1f µW (§8c proposal:     %+.0f%%)\n",
		r.ConcurrentUW, (r.ConcurrentUW/r.SingleUW-1)*100)
}

// PDoSResult is the §8(d) extension: a power denial-of-service attack.
// A rogue device generates traffic purely to trip the PoWiFi router's
// carrier sense; the router politely defers, its occupancy collapses, and
// harvesting devices starve — without the attacker ever touching them.
type PDoSResult struct {
	// Cumulative occupancy (percent) and the 10 ft battery-free sensor's
	// update rate, without and with the attacker.
	CleanOccPct, AttackOccPct float64
	CleanRate, AttackRate     float64
	AttackerLoad              float64
}

// RunExtPDoS measures the router under a rogue carrier-sense attacker
// offering the given airtime fraction on every channel; exact puts the
// sensor on the direct operating-point solver.
func RunExtPDoS(attackerLoad float64, perRun time.Duration, seed uint64, exact bool) *PDoSResult {
	run := func(attack bool) (occPct float64, rate float64) {
		sched := eventsim.New()
		channels := make(map[phy.Channel]*medium.Channel, 3)
		for _, chNum := range phy.PoWiFiChannels {
			channels[chNum] = medium.NewChannel(chNum, sched)
		}
		rt := router.New(router.DefaultConfig(), sched, channels, 100, seed)
		monitors := make(map[phy.Channel]*monitor.Monitor, 3)
		for i, chNum := range phy.PoWiFiChannels {
			monitors[chNum] = monitor.New(channels[chNum], 500*time.Millisecond, 100+i)
		}
		if attack {
			for i, chNum := range phy.PoWiFiChannels {
				rogue := traffic.NewBackground(sched, channels[chNum], 666+i,
					medium.Location{X: 2}, attackerLoad,
					xrand.NewFromLabel(seed, "rogue/"+chNum.String()))
				rogue.Start()
			}
		}
		rt.Start()
		sched.RunUntil(perRun)
		occ := make(map[phy.Channel]float64, 3)
		total := 0.0
		for chNum, mon := range monitors {
			occ[chNum] = mon.MeanOccupancy()
			total += occ[chNum]
		}
		sensor := core.NewBatteryFreeTempSensor()
		sensor.Exact = exact
		link := core.PowerLink{
			TxPowerDBm: 30, TxGainDBi: 6, RxGainDBi: 2,
			DistanceFt: 10, Occupancy: core.OccupancyFromMap(occ),
		}
		return total * 100, sensor.UpdateRate(link)
	}
	res := &PDoSResult{AttackerLoad: attackerLoad}
	res.CleanOccPct, res.CleanRate = run(false)
	res.AttackOccPct, res.AttackRate = run(true)
	return res
}

// WriteTable prints the attack summary.
func (r *PDoSResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "without attacker: cumulative occupancy %6.1f%%, sensor %5.2f reads/s\n",
		r.CleanOccPct, r.CleanRate)
	fmt.Fprintf(w, "with attacker (%.0f%% load/channel): occupancy %6.1f%%, sensor %5.2f reads/s\n",
		r.AttackerLoad*100, r.AttackOccPct, r.AttackRate)
	if r.CleanRate > 0 {
		fmt.Fprintf(w, "power starvation: sensor rate reduced %.0f%%\n",
			(1-r.AttackRate/r.CleanRate)*100)
	}
}

func init() {
	register("ext-multirouter", "§8c extension: multiple PoWiFi routers, CSMA vs concurrent",
		"Multiple PoWiFi routers",
		func(cfg Config) Table {
			per := 3 * time.Second
			if cfg.Quick {
				per = time.Second
			}
			return RunExtMultiRouter(per, 31)
		})
	register("ext-multichannel", "§3.1 ablation: single-channel vs tri-channel power delivery",
		"Multi-channel harvesting ablation",
		func(cfg Config) Table { return RunExtMultiChannel(12, 41, cfg.Exact) })
	register("ext-pdos", "§8d extension: power denial-of-service attack", "Power denial-of-service",
		func(cfg Config) Table {
			per := 3 * time.Second
			if cfg.Quick {
				per = time.Second
			}
			return RunExtPDoS(0.85, per, 37, cfg.Exact)
		})
}

// MultiChannelAblation quantifies the §3.1 design claim that motivates the
// whole system: a single Wi-Fi channel cannot exceed the DCF occupancy
// ceiling (~66% with contention overheads), so cumulative occupancies near
// or above 100% — and the harvesting rates they enable — are only
// reachable by spreading power traffic across channels 1, 6 and 11 and
// summing it in a multi-channel harvester.
type MultiChannelAblation struct {
	DistanceFt float64
	// SingleChRate is the sensor's update rate with all power traffic on
	// channel 6 at the single-channel DCF ceiling.
	SingleChRate float64
	// TriChRate is the rate with the same ceiling occupancy on each of
	// the three channels (the PoWiFi design).
	TriChRate float64
}

// RunExtMultiChannel evaluates both designs at the given distance, using
// the measured single-channel occupancy ceiling; exact puts the sensor
// on the direct operating-point solver.
func RunExtMultiChannel(distanceFt float64, seed uint64, exact bool) *MultiChannelAblation {
	// Measure the actual single-radio occupancy ceiling on a free channel.
	sched := eventsim.New()
	ch := medium.NewChannel(phy.Channel6, sched)
	channels := map[phy.Channel]*medium.Channel{phy.Channel6: ch}
	cfg := router.DefaultConfig()
	cfg.Channels = []phy.Channel{phy.Channel6}
	rt := router.New(cfg, sched, channels, 100, seed)
	mon := monitor.New(ch, 500*time.Millisecond, rt.Radio(phy.Channel6).MAC.StationID())
	rt.Start()
	sched.RunUntil(2 * time.Second)
	ceiling := mon.MeanOccupancy()

	res := &MultiChannelAblation{DistanceFt: distanceFt}
	single := core.PowerLink{
		TxPowerDBm: 30, TxGainDBi: 6, RxGainDBi: 2, DistanceFt: distanceFt,
		Occupancy: core.OccupancyFromMap(map[phy.Channel]float64{phy.Channel6: ceiling}),
	}
	tri := core.PowerLink{
		TxPowerDBm: 30, TxGainDBi: 6, RxGainDBi: 2, DistanceFt: distanceFt,
		Occupancy: [3]float64{ceiling, ceiling, ceiling},
	}
	dev := core.NewBatteryFreeTempSensor()
	dev.Exact = exact
	res.SingleChRate = dev.UpdateRate(single)
	res.TriChRate = dev.UpdateRate(tri)
	return res
}

// WriteTable prints the ablation.
func (r *MultiChannelAblation) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "battery-free sensor at %.0f ft:\n", r.DistanceFt)
	fmt.Fprintf(w, "  single channel at the DCF ceiling: %5.2f reads/s\n", r.SingleChRate)
	fmt.Fprintf(w, "  three channels (PoWiFi design):   %5.2f reads/s (%.1fx)\n",
		r.TriChRate, r.TriChRate/r.SingleChRate)
}

package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/harvester"
	"repro/internal/phy"
	"repro/internal/rf"
	"repro/internal/units"
)

// Fig1Point is one sample of the rectifier-voltage trace.
type Fig1Point struct {
	TimeMs float64
	VoltV  float64
	TxOn   bool
}

// Fig1Result reproduces Fig. 1 and the §2 motivating experiment: the
// rectifier voltage of a battery-free sensor ten feet from a conventional
// router (Asus RT-AC68U: 23 dBm, 4.04 dBi antennas) whose occupancy sits
// in the 10-40% range. The voltage rides up during packet bursts and leaks
// back down in the silent periods, never crossing the 300 mV converter
// threshold.
type Fig1Result struct {
	Trace     []Fig1Point
	PeakV     float64
	Threshold float64
	// BootsWithin24h reports whether the harvester ever reaches the
	// threshold (the paper observed it never does).
	BootsWithin24h bool
}

// RunFig1 simulates the §2 scenario. Occupancy sets the router's duty
// cycle (the paper's router sat mostly at the low end of 10-40%).
func RunFig1(occupancy float64, duration time.Duration) *Fig1Result {
	h := harvester.NewBatteryFree()
	tr := harvester.NewTransient(h, &harvester.Capacitor{C: 10e-6})
	// Received power at 10 ft from the organization's router: 23 dBm on
	// each of three 4.04 dBi antennas (§2), i.e. +4.77 dB over a single
	// chain when all three transmit the same frame.
	link := rf.Link{
		TxPowerDBm: 23 + 4.77,
		TxAntenna:  rf.Antenna{GainDBi: 4.04},
		RxAntenna:  rf.Antenna{GainDBi: 2},
		DistanceM:  units.FeetToMeters(10),
	}
	inc := link.ReceivedPowerW(phy.Channel6.FreqHz())

	res := &Fig1Result{Threshold: h.Seiko.StartupV}
	const dt = 5e-6
	// Bursty on/off pattern: packet bursts of ~400 µs within 1 ms cycles
	// at the configured duty cycle.
	cycle := 1e-3
	on := occupancy * cycle
	sampleEvery := 25e-6
	nextSample := 0.0
	for t := 0.0; t < duration.Seconds(); t += dt {
		var p float64
		txOn := math.Mod(t, cycle) < on
		if txOn {
			p = inc
		}
		v := tr.Step(dt, []harvester.ChannelPower{{FreqHz: phy.Channel6.FreqHz(), PowerW: p}})
		if v > res.PeakV {
			res.PeakV = v
		}
		if t >= nextSample {
			res.Trace = append(res.Trace, Fig1Point{TimeMs: t * 1e3, VoltV: v, TxOn: txOn})
			nextSample += sampleEvery
		}
	}
	// The 24-hour claim follows from the steady state: if the periodic
	// trace's peak stabilizes below threshold, more time cannot help.
	res.BootsWithin24h = res.PeakV >= res.Threshold
	return res
}

// WriteTable prints the trace summary and a coarse series.
func (r *Fig1Result) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "rectifier threshold: %.2f V\n", r.Threshold)
	fmt.Fprintf(w, "peak voltage over trace: %.3f V\n", r.PeakV)
	fmt.Fprintf(w, "reaches threshold: %v (paper: never, over 24 h)\n", r.BootsWithin24h)
	fmt.Fprintln(w, "time_ms  volts  tx")
	step := len(r.Trace) / 25
	if step == 0 {
		step = 1
	}
	for i := 0; i < len(r.Trace); i += step {
		p := r.Trace[i]
		tx := " "
		if p.TxOn {
			tx = "*"
		}
		fmt.Fprintf(w, "%7.3f  %.3f  %s\n", p.TimeMs, p.VoltV, tx)
	}
}

func init() {
	register("fig1", "rectifier voltage under a conventional router (never boots)",
		"Key challenge with Wi-Fi power delivery",
		func(cfg Config) Table {
			dur := 10 * time.Millisecond
			if cfg.Quick {
				dur = 4 * time.Millisecond
			}
			return RunFig1(0.40, dur)
		})
}

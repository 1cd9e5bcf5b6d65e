package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/monitor"
	"repro/internal/phy"
	"repro/internal/router"
	"repro/internal/testbed"
)

// Fig5Result is the injector parameter study (Fig. 5): single-channel
// occupancy versus the UDP broadcast inter-packet delay for several
// queue-depth thresholds, in the absence of client traffic.
type Fig5Result struct {
	DelaysUS   []int
	Thresholds []int
	// OccupancyPct[threshold index][delay index] in percent.
	OccupancyPct [][]float64
}

// RunFig5 sweeps the injector parameters over the given simulated duration
// per point.
func RunFig5(delaysUS, thresholds []int, perPoint time.Duration, seed uint64) *Fig5Result {
	res := &Fig5Result{DelaysUS: delaysUS, Thresholds: thresholds}
	for _, qd := range thresholds {
		row := make([]float64, 0, len(delaysUS))
		for _, d := range delaysUS {
			b := testbed.NewBench(testbed.BenchConfig{Scheme: router.PoWiFi, Seed: seed})
			for _, radio := range b.Router.Radios {
				radio.Injector.Cfg.QueueDepthThreshold = qd
				radio.Injector.Cfg.InterPacketDelay = time.Duration(d) * time.Microsecond
			}
			mon := monitor.New(b.Channels[phy.Channel1], 500*time.Millisecond,
				b.RouterRadio().StationID())
			b.Start()
			b.Sched.RunUntil(perPoint)
			row = append(row, mon.MeanOccupancy()*100)
		}
		res.OccupancyPct = append(res.OccupancyPct, row)
	}
	return res
}

// WriteTable prints the sweep in the paper's layout.
func (r *Fig5Result) WriteTable(w io.Writer) {
	fmt.Fprint(w, "delay_us")
	for _, qd := range r.Thresholds {
		fmt.Fprintf(w, "  qdepth=%d", qd)
	}
	fmt.Fprintln(w)
	for di, d := range r.DelaysUS {
		fmt.Fprintf(w, "%8d", d)
		for ti := range r.Thresholds {
			fmt.Fprintf(w, "  %7.1f%%", r.OccupancyPct[ti][di])
		}
		fmt.Fprintln(w)
	}
}

func init() {
	register("fig5", "occupancy vs inter-packet delay and queue threshold",
		"Effect of inter-packet delay on occupancy",
		func(cfg Config) Table {
			delays := []int{20, 50, 100, 150, 200, 250, 300, 350, 400}
			thresholds := []int{1, 5, 50, 100}
			per := 4 * time.Second
			if cfg.Quick {
				delays = []int{50, 100, 200, 400}
				thresholds = []int{1, 5, 50}
				per = 1 * time.Second
			}
			return RunFig5(delays, thresholds, per, 5)
		})
}

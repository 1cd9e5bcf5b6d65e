// Smarthome: replay one of the paper's §6 home deployments through the
// public Scenario SDK.
//
// A PoWiFi router replaces the home's router for a simulated day: the
// occupants' devices and the neighbours' networks load the channels on
// a diurnal schedule, and a battery-free temperature sensor sits ten
// feet away. The example streams the day bin by bin with the Bins
// iterator (printing the per-channel occupancy every two hours — the
// Fig. 14/15 story for a single home), then runs the same day again
// with the stateful device-lifecycle engine attached: the battery-free
// sensor's boot/outage timeline, a duty-cycled camera accumulating
// frames on its coin cell, and the Jawbone tracker charging on the
// router's USB perch.
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	powifi "repro"
)

func main() {
	ctx := context.Background()
	home := powifi.PaperHomes()[0] // 2 users, 6 devices, 17 neighboring APs
	fmt.Printf("deploying in home %d: %d users, %d devices, %d neighboring APs\n\n",
		home.ID, home.Users, home.Devices, home.NeighborAPs)

	mix, err := powifi.ParseDeviceMix("temp=1,camera=1,jawbone=1")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	sc, err := powifi.NewScenario(
		powifi.WithHome(home),
		powifi.WithSensorDistance(10),
		powifi.WithHorizon(24*time.Hour),
		powifi.WithBinWidth(15*time.Minute),
		powifi.WithWindow(400*time.Millisecond),
		powifi.WithDevices(mix),
	)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// Stream the day: one BinSample per 15-minute bin, printed every
	// two hours. The day is simulated as one batch before the first bin
	// arrives, so breaking out of the loop would only stop delivery.
	fmt.Println("hour  ch1     ch6     ch11    cumulative  sensor")
	for s, err := range sc.Bins(ctx) {
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if s.Bin%8 != 0 {
			continue
		}
		fmt.Printf("%4.0f  %5.1f%%  %5.1f%%  %5.1f%%  %9.1f%%  %5.2f reads/s\n",
			s.HourOfDay, s.Occupancy[0]*100, s.Occupancy[1]*100, s.Occupancy[2]*100,
			s.CumulativePct, s.SensorRate)
	}

	// The reduced report: the same day through Run, with the lifecycle
	// devices riding the bins.
	rep, err := sc.Run(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	h := rep.Home
	fmt.Printf("\nmean cumulative occupancy: %.1f%% (paper range across homes: 78-127%%)\n", h.MeanCumulativePct)
	fmt.Printf("sensor update rate at 10 ft: mean %.2f reads/s (silent bins: %d/%d)\n",
		h.MeanUpdateRateHz, h.SilentBins, h.Bins)

	fmt.Println("\ndevice lifecycles over the same day:")
	for _, d := range h.Devices {
		switch d.Kind {
		case "temp":
			first := "never"
			if d.FirstUpdateS != nil {
				first = fmt.Sprintf("%.1f s", *d.FirstUpdateS)
			}
			fmt.Printf("  temp sensor:  first update %s, %.0f updates, outage %.1f%% of the day\n",
				first, d.Updates, d.OutagePct)
		case "camera":
			first := "never"
			if d.FirstUpdateS != nil {
				first = fmt.Sprintf("after %.0f min", *d.FirstUpdateS/60)
			}
			fmt.Printf("  camera:       %d frames on the coin cell (first %s), soc ends at %.2f%%\n",
				d.Frames, first, *d.FinalSoCPct)
		default:
			fmt.Printf("  jawbone UP24: charged to %.0f%% on the USB perch (outage %.1f%%)\n",
				*d.FinalSoCPct, d.OutagePct)
		}
	}
}

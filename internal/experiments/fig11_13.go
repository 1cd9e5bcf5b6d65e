package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/rf"
)

// Fig11Result is the temperature-sensor update-rate-versus-distance study
// (§5.1, Fig. 11), run at the paper's measured 91.3% cumulative occupancy.
type Fig11Result struct {
	DistancesFt []float64
	BatteryFree []float64 // reads/second
	Recharging  []float64
	// Ranges are the maximum operating distances.
	BatteryFreeRangeFt float64
	RechargingRangeFt  float64
}

// RunFig11 sweeps distance for both temperature-sensor versions; exact
// puts both on the direct operating-point solver.
func RunFig11(distances []float64, exact bool) *Fig11Result {
	bf := core.NewBatteryFreeTempSensor()
	bc := core.NewRechargingTempSensor()
	bf.Exact, bc.Exact = exact, exact
	const occupancy = 0.913
	res := &Fig11Result{DistancesFt: distances}
	for _, d := range distances {
		link := core.PoWiFiLink(d, occupancy)
		res.BatteryFree = append(res.BatteryFree, bf.UpdateRate(link))
		res.Recharging = append(res.Recharging, bc.UpdateRate(link))
	}
	res.BatteryFreeRangeFt = core.OperatingRangeFt(40, func(d float64) bool {
		return bf.UpdateRate(core.PoWiFiLink(d, occupancy)) > 0
	})
	res.RechargingRangeFt = core.OperatingRangeFt(40, func(d float64) bool {
		return bc.UpdateRate(core.PoWiFiLink(d, occupancy)) > 0
	})
	return res
}

// WriteTable prints the update-rate table.
func (r *Fig11Result) WriteTable(w io.Writer) {
	fmt.Fprintln(w, "distance_ft  battery_free  battery_recharging  (reads/s)")
	for i, d := range r.DistancesFt {
		fmt.Fprintf(w, "%11.0f  %12.2f  %18.2f\n", d, r.BatteryFree[i], r.Recharging[i])
	}
	fmt.Fprintf(w, "ranges: battery-free %.1f ft (paper 20), battery-recharging %.1f ft (paper 28)\n",
		r.BatteryFreeRangeFt, r.RechargingRangeFt)
}

// Fig12Result is the camera inter-frame-time-versus-distance study (§5.2,
// Fig. 12), at the paper's measured 90.9% cumulative occupancy.
type Fig12Result struct {
	DistancesFt []float64
	BatteryFree []time.Duration
	Recharging  []time.Duration
	// Ranges are the maximum operating distances.
	BatteryFreeRangeFt float64
	RechargingRangeFt  float64
}

// RunFig12 sweeps distance for both camera versions; exact puts both on
// the direct operating-point solver.
func RunFig12(distances []float64, exact bool) *Fig12Result {
	bf := core.NewBatteryFreeCamera()
	bc := core.NewRechargingCamera()
	bf.Exact, bc.Exact = exact, exact
	const occupancy = 0.909
	res := &Fig12Result{DistancesFt: distances}
	for _, d := range distances {
		link := core.PoWiFiLink(d, occupancy)
		res.BatteryFree = append(res.BatteryFree, bf.InterFrameTime(link))
		res.Recharging = append(res.Recharging, bc.InterFrameTime(link))
	}
	res.BatteryFreeRangeFt = core.OperatingRangeFt(40, func(d float64) bool {
		return bf.NetHarvestedW(core.PoWiFiLink(d, occupancy)) > 0
	})
	res.RechargingRangeFt = core.OperatingRangeFt(40, func(d float64) bool {
		return bc.NetHarvestedW(core.PoWiFiLink(d, occupancy)) > 0
	})
	return res
}

// fmtIFT renders an inter-frame time, or "-" when out of range.
func fmtIFT(d time.Duration) string {
	if d > 100*time.Hour {
		return "       -"
	}
	return fmt.Sprintf("%7.1fm", d.Minutes())
}

// WriteTable prints the inter-frame table.
func (r *Fig12Result) WriteTable(w io.Writer) {
	fmt.Fprintln(w, "distance_ft  battery_free  battery_recharging  (minutes between frames)")
	for i, d := range r.DistancesFt {
		fmt.Fprintf(w, "%11.0f  %12s  %18s\n", d, fmtIFT(r.BatteryFree[i]), fmtIFT(r.Recharging[i]))
	}
	fmt.Fprintf(w, "ranges: battery-free %.1f ft (paper 17), battery-recharging %.1f ft (paper 23)\n",
		r.BatteryFreeRangeFt, r.RechargingRangeFt)
}

// Fig13Result is the through-the-wall camera study (Fig. 13): the
// battery-free camera five feet from the router behind four wall
// materials.
type Fig13Result struct {
	Walls      []rf.WallMaterial
	InterFrame []time.Duration
}

// RunFig13 evaluates each wall material at five feet; exact puts the
// camera on the direct operating-point solver.
func RunFig13(exact bool) *Fig13Result {
	cam := core.NewBatteryFreeCamera()
	cam.Exact = exact
	const occupancy = 0.909
	walls := []rf.WallMaterial{rf.NoWall, rf.WoodenDoor, rf.GlassDoublePane, rf.HollowWall, rf.DoubleSheetrock}
	res := &Fig13Result{Walls: walls}
	for _, wall := range walls {
		link := core.PoWiFiLink(5, occupancy)
		link.Wall = wall
		res.InterFrame = append(res.InterFrame, cam.InterFrameTime(link))
	}
	return res
}

// WriteTable prints the per-material table in the paper's order.
func (r *Fig13Result) WriteTable(w io.Writer) {
	fmt.Fprintln(w, "material      inter_frame_min")
	for i, wall := range r.Walls {
		mins := r.InterFrame[i].Minutes()
		if math.IsInf(mins, 1) {
			fmt.Fprintf(w, "%-12s  out of range\n", wall)
			continue
		}
		fmt.Fprintf(w, "%-12s  %6.1f\n", wall, mins)
	}
}

func init() {
	register("fig11", "temperature sensor update rate vs distance", "Update rate of temperature sensors",
		func(cfg Config) Table {
			distances := []float64{1, 2.5, 5, 7.5, 10, 12.5, 15, 17.5, 20, 22.5, 25, 27.5, 30}
			if cfg.Quick {
				distances = []float64{2, 5, 10, 15, 20, 25, 30}
			}
			return RunFig11(distances, cfg.Exact)
		})
	register("fig12", "camera inter-frame time vs distance", "Camera prototype results",
		func(cfg Config) Table {
			distances := []float64{2, 4, 6, 8, 10, 12, 14, 16, 17, 18, 20, 22, 23}
			if cfg.Quick {
				distances = []float64{5, 10, 15, 17, 20, 23}
			}
			return RunFig12(distances, cfg.Exact)
		})
	register("fig13", "battery-free camera through walls", "Battery-free camera in through-the-wall scenarios",
		func(cfg Config) Table { return RunFig13(cfg.Exact) })
}

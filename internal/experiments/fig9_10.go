package experiments

import (
	"fmt"
	"io"

	"repro/internal/harvester"
	"repro/internal/phy"
	"repro/internal/units"
)

// Fig9Result is the harvester return-loss sweep (Fig. 9): S11 in dB across
// the 2.4 GHz band for both harvester versions.
type Fig9Result struct {
	FreqHz      []float64
	BatteryFree []float64
	Charging    []float64
}

// RunFig9 sweeps 2.40-2.48 GHz at the given step.
func RunFig9(stepHz float64) *Fig9Result {
	bf := harvester.NewBatteryFree()
	bc := harvester.NewBatteryCharging()
	res := &Fig9Result{}
	for f := 2.400e9; f <= 2.480e9; f += stepHz {
		res.FreqHz = append(res.FreqHz, f)
		res.BatteryFree = append(res.BatteryFree, bf.ReturnLossDB(f))
		res.Charging = append(res.Charging, bc.ReturnLossDB(f))
	}
	return res
}

// WorstInBand returns the worst (largest) return loss within the
// 2.401-2.473 GHz band for the given series.
func (r *Fig9Result) WorstInBand(series []float64) float64 {
	worst := -1e9
	for i, f := range r.FreqHz {
		if f < 2.401e9 || f > 2.473e9 {
			continue
		}
		if series[i] > worst {
			worst = series[i]
		}
	}
	return worst
}

// WriteTable prints the sweep.
func (r *Fig9Result) WriteTable(w io.Writer) {
	fmt.Fprintln(w, "freq_GHz  battery_free_dB  battery_charging_dB")
	for i, f := range r.FreqHz {
		fmt.Fprintf(w, "%8.4f  %15.2f  %19.2f\n", f/1e9, r.BatteryFree[i], r.Charging[i])
	}
	fmt.Fprintf(w, "worst in-band: battery-free %.2f dB, battery-charging %.2f dB (paper: < -10 dB)\n",
		r.WorstInBand(r.BatteryFree), r.WorstInBand(r.Charging))
}

// Fig10Point is one row of the harvester output-power sweep.
type Fig10Point struct {
	InputDBm float64
	// OutputUW holds the rectifier DC output in µW per channel (1, 6, 11).
	OutputUW [3]float64
}

// Fig10Result is the available-power sweep (Fig. 10) for one harvester
// version, plus the measured sensitivity.
type Fig10Result struct {
	Version        harvester.Version
	Points         []Fig10Point
	SensitivityDBm float64
}

// RunFig10 sweeps input power from -20 to +4 dBm on all three channels.
func RunFig10(version harvester.Version, stepDB float64) *Fig10Result {
	var h *harvester.Harvester
	if version == harvester.BatteryFree {
		h = harvester.NewBatteryFree()
	} else {
		h = harvester.NewBatteryCharging()
	}
	res := &Fig10Result{Version: version}
	chans := []phy.Channel{phy.Channel1, phy.Channel6, phy.Channel11}
	for dbm := -20.0; dbm <= 4.0+1e-9; dbm += stepDB {
		pt := Fig10Point{InputDBm: dbm}
		for i, ch := range chans {
			op := h.OperatingPoint(units.DBmToWatts(dbm), ch.FreqHz())
			pt.OutputUW[i] = units.Microwatts(op.RectDCW)
		}
		res.Points = append(res.Points, pt)
	}
	res.SensitivityDBm = h.SensitivityDBm(phy.Channel6.FreqHz())
	return res
}

// WriteTable prints the sweep.
func (r *Fig10Result) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "%s harvester (sensitivity %.1f dBm)\n", r.Version, r.SensitivityDBm)
	fmt.Fprintln(w, "input_dBm  ch1_uW  ch6_uW  ch11_uW")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%9.0f  %6.1f  %6.1f  %7.1f\n", p.InputDBm, p.OutputUW[0], p.OutputUW[1], p.OutputUW[2])
	}
}

func init() {
	register("fig9", "harvester return loss across the Wi-Fi band", "Harvester return loss",
		func(cfg Config) Table {
			step := 2e6
			if cfg.Quick {
				step = 8e6
			}
			return RunFig9(step)
		})
	register("fig10", "available output power at the harvester vs input power",
		"Available output power at the harvester",
		func(cfg Config) Table {
			step := 2.0
			if cfg.Quick {
				step = 4.0
			}
			return tables{RunFig10(harvester.BatteryFree, step), RunFig10(harvester.BatteryCharging, step)}
		})
}

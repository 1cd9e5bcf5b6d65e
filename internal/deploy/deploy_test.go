package deploy

import (
	"testing"
	"time"

	"repro/internal/phy"
	"repro/internal/stats"
)

// fastOpts keeps the packet-level sampling cheap for unit tests.
func fastOpts() Options {
	return Options{
		BinWidth:         time.Hour,
		Window:           250 * time.Millisecond,
		Hours:            6,
		SensorDistanceFt: 10,
	}
}

func TestPaperHomesMatchTable1(t *testing.T) {
	homes := PaperHomes()
	if len(homes) != 6 {
		t.Fatalf("homes = %d, want 6", len(homes))
	}
	wantUsers := []int{2, 1, 3, 2, 1, 3}
	wantDevices := []int{6, 1, 6, 4, 2, 6}
	wantAPs := []int{17, 4, 10, 15, 24, 16}
	for i, h := range homes {
		if h.ID != i+1 {
			t.Errorf("home %d id = %d", i, h.ID)
		}
		if h.Users != wantUsers[i] || h.Devices != wantDevices[i] || h.NeighborAPs != wantAPs[i] {
			t.Errorf("home %d = %+v, want users=%d devices=%d aps=%d",
				h.ID, h, wantUsers[i], wantDevices[i], wantAPs[i])
		}
	}
	if !homes[0].Weekend || !homes[1].Weekend {
		t.Error("homes 1 and 2 were staged over a weekend")
	}
	if homes[2].Weekend {
		t.Error("home 3 was a weekday deployment")
	}
}

func TestRunProducesAllBins(t *testing.T) {
	res := Run(PaperHomes()[1], fastOpts())
	if len(res.Cumulative) != 6 {
		t.Fatalf("bins = %d, want 6", len(res.Cumulative))
	}
	for _, chNum := range phy.PoWiFiChannels {
		if len(res.Occupancy[chNum]) != 6 {
			t.Errorf("%v occupancy bins = %d, want 6", chNum, len(res.Occupancy[chNum]))
		}
	}
	if len(res.SensorRates) != 6 || len(res.HourOfDay) != 6 {
		t.Error("sensor rates / hours not aligned with bins")
	}
}

func TestCumulativeIsChannelSum(t *testing.T) {
	res := Run(PaperHomes()[1], fastOpts())
	for i := range res.Cumulative {
		sum := 0.0
		for _, chNum := range phy.PoWiFiChannels {
			sum += res.Occupancy[chNum][i]
		}
		if diff := res.Cumulative[i] - sum; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("bin %d cumulative %v != channel sum %v", i, res.Cumulative[i], sum)
		}
	}
}

func TestOccupancyWithinPhysicalBounds(t *testing.T) {
	res := Run(PaperHomes()[0], fastOpts())
	for _, chNum := range phy.PoWiFiChannels {
		for i, v := range res.Occupancy[chNum] {
			if v < 0 || v > 100 {
				t.Fatalf("%v bin %d occupancy %v%% out of [0,100]", chNum, i, v)
			}
		}
	}
	for i, v := range res.Cumulative {
		if v < 0 || v > 300 {
			t.Fatalf("cumulative bin %d = %v%% out of [0,300]", i, v)
		}
	}
}

func TestMeanCumulativeInPaperBallpark(t *testing.T) {
	// §6: mean cumulative occupancies across homes fall in 78-127%.
	// Run two contrasting homes with moderate resolution.
	opts := Options{BinWidth: 90 * time.Minute, Window: 300 * time.Millisecond, Hours: 24, SensorDistanceFt: 10}
	for _, idx := range []int{1, 4} { // home 2 (quiet) and home 5 (busy)
		res := Run(PaperHomes()[idx], opts)
		m := res.MeanCumulative()
		if m < 60 || m > 160 {
			t.Errorf("home %d mean cumulative = %.1f%%, want within 60-160", res.Home.ID, m)
		}
	}
}

func TestSensorRatesPlausible(t *testing.T) {
	// Fig. 15: at 10 ft the battery-free sensor reads at 0-10/s.
	res := Run(PaperHomes()[2], fastOpts())
	cdf := stats.NewCDF(res.SensorRates)
	if cdf.Quantile(1) > 12 {
		t.Errorf("max sensor rate = %v, implausibly high", cdf.Quantile(1))
	}
	if cdf.Quantile(0.5) <= 0 {
		t.Errorf("median sensor rate = %v, sensor should run at 10 ft", cdf.Quantile(0.5))
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	a := Run(PaperHomes()[1], fastOpts())
	b := Run(PaperHomes()[1], fastOpts())
	for i := range a.Cumulative {
		if a.Cumulative[i] != b.Cumulative[i] {
			t.Fatalf("bin %d differs between identical runs: %v vs %v",
				i, a.Cumulative[i], b.Cumulative[i])
		}
	}
}

func TestHomesDiffer(t *testing.T) {
	a := Run(PaperHomes()[1], fastOpts()) // 4 neighbor APs
	b := Run(PaperHomes()[4], fastOpts()) // 24 neighbor APs
	same := 0
	for i := range a.Cumulative {
		if a.Cumulative[i] == b.Cumulative[i] {
			same++
		}
	}
	if same == len(a.Cumulative) {
		t.Error("two very different homes produced identical logs")
	}
}

func TestRunBatchAgreesWithRun(t *testing.T) {
	// Run materializes a finished batch; the batch's samples must
	// reproduce the log exactly, and carry the sensor-side fields the
	// fleet runner depends on.
	cfg := PaperHomes()[1]
	opts := fastOpts()
	res := Run(cfg, opts)
	var b BinBatch
	NewSampler().RunBatch(cfg, opts, &b, nil)
	if b.Len() != len(res.Cumulative) {
		t.Fatalf("batched %d bins, materialized %d", b.Len(), len(res.Cumulative))
	}
	for i := 0; i < b.Len(); i++ {
		s := b.Sample(i)
		if s.Bin != i {
			t.Fatalf("bin %d reported index %d", i, s.Bin)
		}
		if s.CumulativePct != res.Cumulative[i] {
			t.Fatalf("bin %d cumulative %v != %v", i, s.CumulativePct, res.Cumulative[i])
		}
		if s.SensorRate != res.SensorRates[i] {
			t.Fatalf("bin %d sensor rate %v != %v", i, s.SensorRate, res.SensorRates[i])
		}
		if s.HourOfDay != res.HourOfDay[i] {
			t.Fatalf("bin %d hour %v != %v", i, s.HourOfDay, res.HourOfDay[i])
		}
		for ci, chNum := range phy.PoWiFiChannels {
			if s.Occupancy[ci]*100 != res.Occupancy[chNum][i] {
				t.Fatalf("bin %d %v occupancy mismatch", i, chNum)
			}
		}
		if s.SensorRate > 0 && s.NetHarvestedW <= 0 {
			t.Fatalf("bin %d: sensor runs at %v reads/s but harvested %v W", i, s.SensorRate, s.NetHarvestedW)
		}
	}
}

func TestActivityDiurnalShape(t *testing.T) {
	if activity(3, false) >= activity(20, false) {
		t.Error("3 AM should be quieter than 8 PM")
	}
	if activity(12, true) <= activity(12, false) {
		t.Error("weekend midday should be busier than weekday midday")
	}
	for h := 0.0; h < 24; h += 0.5 {
		a := activity(h, false)
		if a < 0 || a > 1 {
			t.Fatalf("activity(%v) = %v out of [0,1]", h, a)
		}
	}
}

func TestResultString(t *testing.T) {
	res := Run(PaperHomes()[1], fastOpts())
	s := res.String()
	if s == "" {
		t.Error("empty result summary")
	}
}

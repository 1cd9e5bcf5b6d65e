package deploy

import (
	"math"
	"strings"
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

// runHome runs one home on a fresh Sampler into a fresh batch.
func runHome(cfg HomeConfig, opts Options) *BinBatch {
	var b BinBatch
	NewSampler().RunBatch(cfg, opts, &b, nil)
	return &b
}

func TestRunProducesAllBins(t *testing.T) {
	b := runHome(PaperHomes()[1], fastOpts())
	if b.Len() != 6 {
		t.Fatalf("bins = %d, want 6", b.Len())
	}
	if len(b.Occupancy) != 6 || len(b.CumulativePct) != 6 || len(b.SensorRate) != 6 ||
		len(b.NetHarvestedW) != 6 || len(b.Simulated) != 6 {
		t.Error("batch columns not aligned with bins")
	}
}

func TestCumulativeIsChannelSum(t *testing.T) {
	b := runHome(PaperHomes()[1], fastOpts())
	for i, occ := range b.Occupancy {
		sum := 0.0
		for _, v := range occ {
			sum += v * 100
		}
		if diff := b.CumulativePct[i] - sum; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("bin %d cumulative %v != channel sum %v", i, b.CumulativePct[i], sum)
		}
	}
}

func TestOccupancyWithinPhysicalBounds(t *testing.T) {
	b := runHome(PaperHomes()[0], fastOpts())
	for i, occ := range b.Occupancy {
		for c, v := range occ {
			if v < 0 || v > 1 {
				t.Fatalf("%v bin %d occupancy %v out of [0,1]", phy.PoWiFiChannels[c], i, v)
			}
		}
	}
	for i, v := range b.CumulativePct {
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
		home := PaperHomes()[idx]
		m := runHome(home, opts).Means().CumulativePct
		if m < 60 || m > 160 {
			t.Errorf("home %d mean cumulative = %.1f%%, want within 60-160", home.ID, m)
		}
	}
}

func TestSensorRatesPlausible(t *testing.T) {
	// Fig. 15: at 10 ft the battery-free sensor reads at 0-10/s.
	cdf := stats.NewCDF(runHome(PaperHomes()[2], fastOpts()).SensorRate)
	if cdf.Quantile(1) > 12 {
		t.Errorf("max sensor rate = %v, implausibly high", cdf.Quantile(1))
	}
	if cdf.Quantile(0.5) <= 0 {
		t.Errorf("median sensor rate = %v, sensor should run at 10 ft", cdf.Quantile(0.5))
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	a := runHome(PaperHomes()[1], fastOpts())
	b := runHome(PaperHomes()[1], fastOpts())
	for i := range a.CumulativePct {
		if a.CumulativePct[i] != b.CumulativePct[i] {
			t.Fatalf("bin %d differs between identical runs: %v vs %v",
				i, a.CumulativePct[i], b.CumulativePct[i])
		}
	}
}

func TestHomesDiffer(t *testing.T) {
	a := runHome(PaperHomes()[1], fastOpts()) // 4 neighbor APs
	b := runHome(PaperHomes()[4], fastOpts()) // 24 neighbor APs
	same := 0
	for i := range a.CumulativePct {
		if a.CumulativePct[i] == b.CumulativePct[i] {
			same++
		}
	}
	if same == len(a.CumulativePct) {
		t.Error("two very different homes produced identical logs")
	}
}

func TestRunBatchAgreesWithRun(t *testing.T) {
	// A finished run's per-bin records (Sample) must reproduce the
	// batch's columns exactly, and carry the sensor-side fields the
	// fleet runner depends on.
	b := runHome(PaperHomes()[1], fastOpts())
	for i := 0; i < b.Len(); i++ {
		s := b.Sample(i)
		if s.Bin != i {
			t.Fatalf("bin %d reported index %d", i, s.Bin)
		}
		if s.CumulativePct != b.CumulativePct[i] || s.SensorRate != b.SensorRate[i] ||
			s.HourOfDay != b.Hour[i] || s.Occupancy != b.Occupancy[i] || s.NetHarvestedW != b.NetHarvestedW[i] {
			t.Fatalf("bin %d record %+v disagrees with the batch columns", i, s)
		}
		if !b.Simulated[i] {
			t.Fatalf("bin %d of an exact run not marked simulated", i)
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

// TestHomeConfigValidate: every count and the start hour is checked
// against its range, the paper's homes pass, and the error names the
// field by its scenario key.
func TestHomeConfigValidate(t *testing.T) {
	for _, h := range PaperHomes() {
		if err := h.Validate(); err != nil {
			t.Errorf("paper home %d rejected: %v", h.ID, err)
		}
	}
	widest := HomeConfig{Users: maxUsers, Devices: maxDevices, NeighborAPs: maxNeighborAPs, StartHour: 23}
	if err := widest.Validate(); err != nil {
		t.Errorf("home at every bound rejected: %v", err)
	}
	cases := map[string]HomeConfig{
		"users":        {Users: -3},
		"devices":      {Devices: maxDevices + 1},
		"neighbor_aps": {NeighborAPs: math.MaxInt},
		"start_hour":   {StartHour: 24},
	}
	for key, h := range cases {
		err := h.Validate()
		if err == nil || !strings.HasPrefix(err.Error(), key+" = ") {
			t.Errorf("Validate(%+v) = %v, want an error naming %s", h, err, key)
		}
	}
	if err := (HomeConfig{StartHour: -30}).Validate(); err == nil || !strings.Contains(err.Error(), "start_hour") {
		t.Errorf("negative start hour: %v", err)
	}
}

// TestOptionsValidate: the options are checked as given — a zero
// duration is rejected, not defaulted — a non-finite horizon is
// rejected by name instead of reaching NumBins' float-to-int
// conversion, and the bin count is bounded.
func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatalf("default options rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Options)
		want   string
	}{
		{"zero window", func(o *Options) { o.Window = 0 }, "non-positive window 0s"},
		{"negative bin", func(o *Options) { o.BinWidth = -time.Minute }, "non-positive bin width -1m0s"},
		{"NaN horizon", func(o *Options) { o.Hours = math.NaN() }, "non-finite horizon NaNh"},
		{"infinite horizon", func(o *Options) { o.Hours = math.Inf(1) }, "non-finite horizon +Infh"},
		{"zero horizon", func(o *Options) { o.Hours = 0 }, "non-positive horizon 0h"},
		{"sub-bin horizon", func(o *Options) { o.Hours = 0.01 }, "shorter than one 1m0s bin"},
		{"too many bins", func(o *Options) { o.Hours, o.BinWidth = 1e6, time.Millisecond }, "-bin limit"},
		{"huge horizon", func(o *Options) { o.Hours = 1e300 }, "-bin limit"},
		{"NaN sensor", func(o *Options) { o.SensorDistanceFt = math.NaN() }, "sensor distance NaN ft"},
		{"zero sensor", func(o *Options) { o.SensorDistanceFt = 0 }, "sensor distance 0 ft, need > 0"},
	}
	for _, tc := range cases {
		o := DefaultOptions()
		tc.mutate(&o)
		if err := o.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
	at := DefaultOptions()
	at.Hours = float64(maxBins) * at.BinWidth.Hours()
	if err := at.Validate(); err != nil {
		t.Errorf("horizon of exactly %d bins rejected: %v", maxBins, err)
	}
}

package lifecycle

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/deploy"
	"repro/internal/xrand"
)

func TestKindNamesRoundTrip(t *testing.T) {
	for _, k := range Kinds() {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
	}
	if _, err := ParseKind("toaster"); err == nil {
		t.Error("ParseKind accepted an unknown archetype")
	}
	if TempSensor.Charger() || !Jawbone.Charger() || !LiIon.Charger() || !NiMH.Charger() {
		t.Error("Charger classification wrong")
	}
	if TempSensor.BatteryBacked() || !Camera.BatteryBacked() {
		t.Error("BatteryBacked classification wrong")
	}
}

func TestMixParsePickAndJSON(t *testing.T) {
	m, err := ParseMix("temp=0.5,camera=0.3,jawbone=0.2")
	if err != nil {
		t.Fatal(err)
	}
	if m[TempSensor] != 0.5 || m[Camera] != 0.3 || m[Jawbone] != 0.2 {
		t.Fatalf("parsed mix wrong: %v", m)
	}
	if !m.Enabled() || m.Total() != 1.0 {
		t.Errorf("Enabled/Total wrong: %v / %v", m.Enabled(), m.Total())
	}

	// Pick maps cumulative shares in canonical order; weights need not
	// be normalized.
	cases := []struct {
		u    float64
		want Kind
	}{
		{0, TempSensor}, {0.49, TempSensor}, {0.5, Camera}, {0.79, Camera},
		{0.8, Jawbone}, {0.999999, Jawbone},
	}
	for _, tc := range cases {
		if got := m.Pick(tc.u); got != tc.want {
			t.Errorf("Pick(%v) = %v, want %v", tc.u, got, tc.want)
		}
	}
	double, err := ParseMix("temp=1,camera=0.6,jawbone=0.4")
	if err != nil {
		t.Fatal(err)
	}
	if got := double.Pick(0.49); got != TempSensor {
		t.Errorf("unnormalized Pick(0.49) = %v, want temp", got)
	}

	// Rejections.
	for _, bad := range []string{"", "temp", "temp=-1", "temp=NaN", "bogus=1", "temp=0,camera=0"} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) accepted", bad)
		}
	}

	// JSON round trip (the fleet Summary schema relies on it).
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `{"camera":0.3,"jawbone":0.2,"temp":0.5}` {
		t.Errorf("Mix JSON = %s", data)
	}
	var back Mix
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != m {
		t.Errorf("JSON round trip changed mix: %v -> %v", m, back)
	}
	var zero Mix
	if data, _ := json.Marshal(zero); string(data) != "{}" {
		t.Errorf("zero mix JSON = %s", data)
	}
	if zero.String() != "none" {
		t.Errorf("zero mix String = %q", zero.String())
	}
}

// bin fabricates a synthetic BinSample for direct state-machine tests.
func bin(i int, occ, rate, netW float64) deploy.BinSample {
	per := occ / 3
	return deploy.BinSample{
		Bin:           i,
		Occupancy:     [3]float64{per, per, per},
		CumulativePct: occ * 100,
		SensorRate:    rate,
		NetHarvestedW: netW,
	}
}

// TestTempSensorStateMachine scripts the battery-free sensor through
// cold start, operation, an RF outage (brownout) and recovery,
// checking the boot/brownout/operate transitions and the metrics they
// produce.
func TestTempSensorStateMachine(t *testing.T) {
	d := NewDevice(TempSensor, Policy{})
	d.Begin(10, time.Minute)
	if d.State() != StateBoot {
		t.Fatalf("initial state %v, want boot", d.State())
	}

	// Powered bin: 30 µW charges the 7.5 µJ release window in ~0.25 s,
	// then reads at 10 Hz for the rest of the minute.
	d.VisitBin(bin(0, 0.9, 10, 30e-6))
	if d.State() != StateOperate {
		t.Fatalf("after powered bin: state %v, want operate", d.State())
	}
	m := d.Metrics()
	if math.IsInf(m.FirstUpdateS, 1) || m.FirstUpdateS > 1 {
		t.Errorf("first update at %v s, want sub-second cold start", m.FirstUpdateS)
	}
	if m.Updates < 500 || m.Updates > 600 {
		t.Errorf("updates after one 10 Hz minute = %v", m.Updates)
	}

	// Dark bin: no RF, the storage node bleeds out, the device browns out.
	d.VisitBin(bin(1, 0, 0, 0))
	if d.State() != StateBrownout {
		t.Fatalf("after dark bin: state %v, want brownout", d.State())
	}
	m = d.Metrics()
	if m.OutageBins != 1 {
		t.Errorf("outage bins = %d, want 1", m.OutageBins)
	}
	if f := m.OutageFraction(); f < 0.45 || f > 0.55 {
		t.Errorf("outage fraction after 1/2 dark bins = %v", f)
	}

	// Recovery: the cold start repeats (the cap decayed), then operates.
	d.VisitBin(bin(2, 0.9, 10, 30e-6))
	if d.State() != StateOperate {
		t.Fatalf("after recovery bin: state %v, want operate", d.State())
	}
	if got := d.Metrics().FirstUpdateS; got != m.FirstUpdateS {
		t.Errorf("recovery rewrote FirstUpdateS: %v -> %v", m.FirstUpdateS, got)
	}
	if math.IsNaN(d.Metrics().FinalSoC) != true {
		t.Error("battery-free sensor should report NaN SoC")
	}
}

// TestRechargingTempBrownoutAndReboot scripts the battery-backed sensor
// through battery exhaustion and the cold-boot hysteresis: a drained
// pack must bank the reboot threshold before reads resume.
func TestRechargingTempBrownoutAndReboot(t *testing.T) {
	d := NewDevice(RechargingTemp, Policy{})
	// Shrink the pack so the duty cycle and quiescent draw can actually
	// exhaust it: 400 reads of capacity, starting at 5% (20 reads) —
	// below the 100-read reboot gate.
	b := d.Battery()
	b.CapacityJ = 400 * d.readE
	b.SelfDischargePerDay = 0
	d.Begin(10, time.Minute)
	if d.State() != StateBoot {
		t.Fatalf("initial state %v, want boot (stored %v J < reboot %v J)",
			d.State(), b.StoredEnergy(), d.rebootE)
	}

	// Dark bins: below the reboot threshold, no reads.
	d.VisitBin(bin(0, 0, 0, 0))
	if got := d.Metrics().Updates; got != 0 {
		t.Fatalf("read %v updates while below the reboot gate", got)
	}
	if d.State() != StateBoot {
		t.Fatalf("state %v, want boot", d.State())
	}

	// Strong RF charges the pack past the reboot gate; reads resume on
	// the 60 s duty cycle.
	i := 1
	for ; i < 200 && d.State() != StateOperate; i++ {
		d.VisitBin(bin(i, 1.2, 0, 0))
	}
	if d.State() != StateOperate {
		t.Fatal("never rebooted under strong RF")
	}
	m := d.Metrics()
	if m.Updates <= 0 || math.IsInf(m.FirstUpdateS, 1) {
		t.Fatalf("no reads after reboot: %+v", m)
	}

	// RF gone: the pack drains through reads and quiescent draw until
	// the device browns out again.
	for j := 0; j < 400 && d.State() != StateBrownout; j++ {
		d.VisitBin(bin(i+j, 0, 0, 0))
	}
	if d.State() != StateBrownout {
		t.Fatalf("never browned out on a dark duty cycle (soc %v)", d.Battery().SoC())
	}
}

// TestChargerLedgerMatchesClosedForm is the cannot-diverge contract of
// the BatteryChargeTime satellite: stepping the stateful ledger at
// constant power reproduces harvester.Battery.ConstantPowerChargeTime
// (which core.BatteryChargeTime wraps) through the in-bin crossing
// interpolation.
func TestChargerLedgerMatchesClosedForm(t *testing.T) {
	d := NewDevice(LiIon, Policy{})
	d.Battery().SelfDischargePerDay = 0 // isolate the constant-power ledger
	bw := 30 * time.Minute
	d.Begin(6, bw) // close placement: strong, constant net power

	s := bin(0, 0.9, 0, 0)
	var p float64
	d.OnBin = func(b BinStats) { p = b.HarvestW }
	for i := 0; i < 2000 && math.IsInf(d.Metrics().TimeToFullS, 1); i++ {
		s.Bin = i
		d.VisitBin(s)
	}
	m := d.Metrics()
	if math.IsInf(m.TimeToFullS, 1) {
		t.Fatalf("cell never filled at %v W", p)
	}
	want := d.Battery().ConstantPowerChargeTime(0, d.Policy.FullSoC, p).Seconds()
	if math.Abs(m.TimeToFullS-want) > 1e-6*want {
		t.Errorf("ledger time-to-full %v s, closed form %v s", m.TimeToFullS, want)
	}
	if m.FinalSoC < d.Policy.FullSoC {
		t.Errorf("final SoC %v below FullSoC %v", m.FinalSoC, d.Policy.FullSoC)
	}
}

// TestJawboneIgnoresSensorPlacement pins the §8(a) geometry: the USB
// charger sits on the router regardless of where the home's sensor
// went, so two placements charge identically.
func TestJawboneIgnoresSensorPlacement(t *testing.T) {
	run := func(ft float64) float64 {
		d := NewDevice(Jawbone, Policy{})
		d.Begin(ft, time.Minute)
		for i := 0; i < 150; i++ {
			d.VisitBin(bin(i, 0.95, 0, 0))
		}
		return d.Metrics().FinalSoC
	}
	if a, b := run(5), run(25); a != b {
		t.Errorf("jawbone charge depends on sensor placement: %v at 5 ft vs %v at 25 ft", a, b)
	}
	if soc := run(10); soc < 0.25 || soc > 0.55 {
		t.Errorf("2.5 h on the charger reached %.0f%%, paper reports 41%%", soc*100)
	}
}

// TestPooledDeviceParity is the pooling contract: one Device reused
// across many randomized homes produces exactly the metrics and bin
// streams fresh devices produce.
func TestPooledDeviceParity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several packet-level deployments")
	}
	rng := xrand.NewFromLabel(11, "lifecycle/parity")
	opts := deploy.Options{
		BinWidth:         30 * time.Minute,
		Window:           2 * time.Millisecond,
		Hours:            2,
		SensorDistanceFt: 9,
	}
	smp := deploy.NewSampler()
	var b deploy.BinBatch
	pooled := map[Kind]*Device{}
	for trial := 0; trial < 6; trial++ {
		cfg := deploy.HomeConfig{
			ID: trial + 1, Users: 1 + rng.Intn(3), Devices: rng.Intn(8),
			NeighborAPs: rng.Intn(20), Weekend: rng.Bool(0.3),
			StartHour: rng.Intn(24), Seed: rng.Uint64(),
		}
		opts.SensorDistanceFt = rng.Uniform(4, 14)
		kind := Kind(trial % NumKinds)

		var freshBins, pooledBins []BinStats
		fresh := NewDevice(kind, Policy{})
		fresh.OnBin = func(b BinStats) { freshBins = append(freshBins, b) }
		fresh.Begin(opts.SensorDistanceFt, opts.BinWidth)
		smp.RunBatch(cfg, opts, &b, nil)
		fresh.VisitBatch(&b)

		p, ok := pooled[kind]
		if !ok {
			p = NewDevice(kind, Policy{})
			pooled[kind] = p
			// Dirty the pooled device with an unrelated home first.
			p.Begin(7, opts.BinWidth)
			smp.RunBatch(deploy.PaperHomes()[0], opts, &b, nil)
			p.VisitBatch(&b)
		}
		p.OnBin = func(b BinStats) { pooledBins = append(pooledBins, b) }
		p.Begin(opts.SensorDistanceFt, opts.BinWidth)
		smp.RunBatch(cfg, opts, &b, nil)
		p.VisitBatch(&b)

		fm, pm := fresh.Metrics(), p.Metrics()
		if !metricsEqual(fm, pm) {
			t.Fatalf("trial %d (%v): pooled metrics diverged\nfresh:  %+v\npooled: %+v",
				trial, kind, fm, pm)
		}
		normBins := func(bs []BinStats) []BinStats {
			out := make([]BinStats, len(bs))
			for i, b := range bs {
				if math.IsNaN(b.SoCPct) {
					b.SoCPct = -1 // NaN != NaN under DeepEqual
				}
				out[i] = b
			}
			return out
		}
		if !reflect.DeepEqual(normBins(freshBins), normBins(pooledBins)) {
			t.Fatalf("trial %d (%v): pooled bin stream diverged", trial, kind)
		}
	}
}

// metricsEqual compares Metrics bit for bit, treating NaN (the
// battery-free sensor's SoC fields) and +Inf as equal to themselves —
// plain struct equality would report NaN != NaN.
func metricsEqual(a, b Metrics) bool {
	norm := func(m Metrics) Metrics {
		if math.IsNaN(m.FinalSoC) {
			m.FinalSoC = -1
		}
		if math.IsNaN(m.MinSoC) {
			m.MinSoC = -1
		}
		return m
	}
	return norm(a) == norm(b)
}

// TestGroupFansOut pins Group's batch fan-out: every device walks every
// bin.
func TestGroupFansOut(t *testing.T) {
	g := Group{NewDevice(TempSensor, Policy{}), NewDevice(Jawbone, Policy{})}
	g.Begin(10, time.Minute)
	var b deploy.BinBatch
	b.Reset(2)
	for i := 0; i < b.Len(); i++ {
		s := bin(i, 0.9, 5, 20e-6)
		b.Occupancy[i], b.CumulativePct[i] = s.Occupancy, s.CumulativePct
		b.SensorRate[i], b.NetHarvestedW[i] = s.SensorRate, s.NetHarvestedW
	}
	g.VisitBatch(&b)
	for _, d := range g {
		if d.Metrics().Bins != 2 {
			t.Errorf("%v device saw %d bins, want 2", d.Kind, d.Metrics().Bins)
		}
	}
}

// TestDefaultPolicies pins the archetype defaults the fleet relies on.
func TestDefaultPolicies(t *testing.T) {
	if p := DefaultPolicy(RechargingTemp); p.UpdateEvery != time.Minute || p.InitialSoC != 0.05 {
		t.Errorf("rtemp defaults wrong: %+v", p)
	}
	if p := DefaultPolicy(Camera); p.UpdateEvery != 0 || p.InitialSoC != 0 || p.FullSoC != 0.99 {
		t.Errorf("camera defaults wrong: %+v", p)
	}
	if p := DefaultPolicy(Jawbone); p.InitialSoC != 0 {
		t.Errorf("jawbone defaults wrong: %+v", p)
	}
}

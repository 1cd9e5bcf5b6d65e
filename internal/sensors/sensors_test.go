package sensors

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/xrand"
)

func TestTemperatureSensorEnergyPerRead(t *testing.T) {
	s := NewTemperatureSensor()
	if s.ReadEnergyJ != 2.77e-6 {
		t.Errorf("read energy = %v, want 2.77 µJ (§5.1)", s.ReadEnergyJ)
	}
}

func TestUpdateRateLinearInPower(t *testing.T) {
	s := NewTemperatureSensor()
	// 27.7 µW harvested = 10 reads/s at 2.77 µJ each.
	if got := s.UpdateRate(27.7e-6); math.Abs(got-10) > 1e-9 {
		t.Errorf("UpdateRate(27.7µW) = %v, want 10", got)
	}
}

func TestUpdateRateSaturates(t *testing.T) {
	s := NewTemperatureSensor()
	if got := s.UpdateRate(1); got != s.MaxRate {
		t.Errorf("saturated rate = %v, want MaxRate %v", got, s.MaxRate)
	}
}

func TestUpdateRateZeroAndNegative(t *testing.T) {
	s := NewTemperatureSensor()
	if s.UpdateRate(0) != 0 || s.UpdateRate(-1e-6) != 0 {
		t.Error("non-positive power must yield zero rate")
	}
}

func TestTimeBetweenReadsInverse(t *testing.T) {
	s := NewTemperatureSensor()
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		p := r.Uniform(1e-7, 5e-5)
		rate := s.UpdateRate(p)
		interval := s.TimeBetweenReads(p)
		return math.Abs(rate*interval.Seconds()-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTimeBetweenReadsUnpowered(t *testing.T) {
	s := NewTemperatureSensor()
	if got := s.TimeBetweenReads(0); got < time.Duration(math.MaxInt64) {
		t.Errorf("unpowered interval = %v, want effectively infinite", got)
	}
}

func TestCameraFrameEnergy(t *testing.T) {
	c := NewCamera()
	if c.FrameEnergyJ != 10.4e-3 {
		t.Errorf("frame energy = %v, want 10.4 mJ (§5.2)", c.FrameEnergyJ)
	}
}

func TestCameraQCIFFitsFRAM(t *testing.T) {
	c := NewCamera()
	frameBytes := c.Width * c.Height // one byte per gray-scale pixel
	if frameBytes != 176*144 {
		t.Errorf("frame bytes = %d, want 25344", frameBytes)
	}
	if frameBytes > c.MCU.FRAMBytes {
		t.Error("QCIF frame must fit the MSP430's 64 KB FRAM (the reason the paper picks QCIF)")
	}
}

func TestSupercapWindowCoversOneFrame(t *testing.T) {
	// ½·6.8mF·(3.1² − 2.4²) ≈ 13.1 mJ — just above one 10.4 mJ capture,
	// which is why the TI chip's 3.1 V/2.4 V window works.
	c := NewCamera()
	e := 0.5 * c.SupercapF * (c.SupercapChargeV*c.SupercapChargeV - c.SupercapCutoffV*c.SupercapCutoffV)
	if e < c.FrameEnergyJ {
		t.Errorf("usable storage %v J below one frame %v J", e, c.FrameEnergyJ)
	}
	if math.Abs(e-13.09e-3) > 0.2e-3 {
		t.Errorf("usable storage = %v J, want about 13.1 mJ", e)
	}
}

func TestInterFrameTimeInverse(t *testing.T) {
	c := NewCamera()
	// 10.4 mJ at 10 µW = 1040 s.
	got := c.InterFrameTime(10e-6)
	want := time.Duration(1040 * float64(time.Second))
	if math.Abs(got.Seconds()-want.Seconds()) > 1 {
		t.Errorf("inter-frame = %v, want about %v", got, want)
	}
}

func TestInterFrameTimeUnpowered(t *testing.T) {
	c := NewCamera()
	if c.InterFrameTime(0) < time.Duration(math.MaxInt64) {
		t.Error("unpowered camera must never capture")
	}
	if c.FramesPerHour(0) != 0 {
		t.Error("unpowered camera frames/hour must be 0")
	}
}

func TestFramesPerHourConsistent(t *testing.T) {
	c := NewCamera()
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		p := r.Uniform(1e-6, 1e-4)
		fph := c.FramesPerHour(p)
		ift := c.InterFrameTime(p)
		return math.Abs(fph*ift.Hours()-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMSP430Parameters(t *testing.T) {
	m := NewMSP430()
	if m.MinVoltage != 1.9 {
		t.Errorf("MSP430 min voltage = %v, want 1.9 (§5.1)", m.MinVoltage)
	}
	if m.BootTime > 2*time.Millisecond {
		t.Errorf("boot time = %v, want <= 2 ms", m.BootTime)
	}
}

func TestMonotonicity(t *testing.T) {
	s := NewTemperatureSensor()
	c := NewCamera()
	prevRate, prevIFT := -1.0, math.Inf(1)
	for p := 1e-7; p < 1e-4; p *= 1.5 {
		rate := s.UpdateRate(p)
		if rate < prevRate {
			t.Fatalf("update rate decreased at %v W", p)
		}
		prevRate = rate
		ift := c.InterFrameTime(p).Seconds()
		if ift > prevIFT {
			t.Fatalf("inter-frame time increased at %v W", p)
		}
		prevIFT = ift
	}
}

func TestUARTTransmitTime(t *testing.T) {
	u := NewUART()
	// 12 bytes at 9600 baud with 10 bits/byte = 12.5 ms.
	got := u.TransmitTime(12)
	want := 12500 * time.Microsecond
	if got != want {
		t.Errorf("transmit time = %v, want %v", got, want)
	}
	if u.TransmitTime(0) != 0 {
		t.Error("empty payload should take no time")
	}
}

func TestReadingFrameFormat(t *testing.T) {
	r := Reading{Seq: 7, MilliC: 21500}
	if got := r.Frame(); got != "T,7,21500\r\n" {
		t.Errorf("frame = %q", got)
	}
}

func TestUARTFrameFitsBetweenReadings(t *testing.T) {
	// A reading's UART frame must serialize far faster than the fastest
	// update interval (1/40 s), or the firmware could not keep up.
	u := NewUART()
	r := Reading{Seq: 9999, MilliC: -40000}
	frameTime := u.TransmitTime(len(r.Frame()))
	s := NewTemperatureSensor()
	if frameTime >= time.Duration(float64(time.Second)/s.MaxRate) {
		t.Errorf("UART frame time %v exceeds the max-rate interval", frameTime)
	}
}

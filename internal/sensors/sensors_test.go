package sensors

import (
	"math"
	"testing"
	"time"
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

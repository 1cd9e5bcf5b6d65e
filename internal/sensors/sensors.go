// Package sensors models the Wi-Fi-powered devices of §5: the battery-free
// and battery-recharging temperature sensor (LMT84 + MSP430FR5969) and the
// camera (OV7670 + MSP430FR5969), plus the microcontroller they share.
//
// The paper's headline per-operation energies anchor everything here:
// 2.77 µJ per temperature measurement + UART transmission, and 10.4 mJ per
// QCIF image capture. Update rates (Fig. 11) and inter-frame times
// (Figs. 12/13) are the ratio of net harvested power to these quantities,
// subject to the storage element's charge/discharge windows.
package sensors

import (
	"math"
	"time"
)

// MSP430FR5969 models the prototypes' microcontroller.
type MSP430FR5969 struct {
	// MinVoltage is the minimum supply for 1 MHz operation (1.9 V).
	MinVoltage float64
	// BootTime is the cold-boot latency (< 2 ms).
	BootTime time.Duration
	// FRAMBytes is the non-volatile storage available for image data.
	FRAMBytes int
}

// NewMSP430 returns the datasheet parameters used in §5.
func NewMSP430() MSP430FR5969 {
	return MSP430FR5969{
		MinVoltage: 1.9,
		BootTime:   2 * time.Millisecond,
		FRAMBytes:  64 * 1024,
	}
}

// TemperatureSensor is the LMT84-based sensing application.
type TemperatureSensor struct {
	MCU MSP430FR5969
	// ReadEnergyJ is the energy of one measurement plus UART transmission
	// (2.77 µJ, §5.1).
	ReadEnergyJ float64
	// MaxRate bounds the update rate at saturation: the firmware's
	// measure-transmit loop takes about 25 ms end to end, so the sensor
	// cannot exceed ~40 reads/s regardless of harvested power (the Fig. 11
	// plateau near the router).
	MaxRate float64
}

// NewTemperatureSensor returns the §5.1 configuration.
func NewTemperatureSensor() *TemperatureSensor {
	return &TemperatureSensor{
		MCU:         NewMSP430(),
		ReadEnergyJ: 2.77e-6,
		MaxRate:     40,
	}
}

// UpdateRate returns the energy-neutral update rate (reads/second) for a
// net harvested power. This is the quantity Figs. 11 and 15 plot: the
// ratio of incoming power to the 2.77 µJ per-operation energy.
func (t *TemperatureSensor) UpdateRate(netHarvestedW float64) float64 {
	if netHarvestedW <= 0 {
		return 0
	}
	rate := netHarvestedW / t.ReadEnergyJ
	return math.Min(rate, t.MaxRate)
}

// Camera is the OV7670-based imaging application of §5.2.
type Camera struct {
	MCU MSP430FR5969
	// FrameEnergyJ is the per-image capture energy (10.4 mJ).
	FrameEnergyJ float64
	// MinVoltage is the image sensor's supply floor (2.4 V).
	MinVoltage float64
	// ActivePowerW is the sensor's active-mode consumption (60 mW).
	ActivePowerW float64
	// Width and Height are the configured QCIF gray-scale resolution.
	Width, Height int
	// SupercapChargeV is the storage voltage at which the TI chip enables
	// the buck converter (3.1 V).
	SupercapChargeV float64
	// SupercapCutoffV is the voltage at which capture stops (2.4 V).
	SupercapCutoffV float64
	// SupercapF is the AVX BestCap storage capacitance (6.8 mF).
	SupercapF float64
}

// NewCamera returns the §5.2 configuration.
func NewCamera() *Camera {
	return &Camera{
		MCU:             NewMSP430(),
		FrameEnergyJ:    10.4e-3,
		MinVoltage:      2.4,
		ActivePowerW:    60e-3,
		Width:           176,
		Height:          144,
		SupercapChargeV: 3.1,
		SupercapCutoffV: 2.4,
		SupercapF:       6.8e-3,
	}
}

// InterFrameTime returns the time between captures at the given net
// harvested power: the camera must bank FrameEnergyJ (plus the relative
// overhead of recharging the supercap window) before each shot. Returns
// +Inf when the power cannot sustain capture.
func (c *Camera) InterFrameTime(netHarvestedW float64) time.Duration {
	if netHarvestedW <= 0 {
		return time.Duration(math.MaxInt64)
	}
	secs := c.FrameEnergyJ / netHarvestedW
	return time.Duration(secs * float64(time.Second))
}

package powifi

import (
	"repro/internal/deploy"
	"repro/internal/fleet"
	"repro/internal/lifecycle"
	"repro/internal/profiling"
)

// HomeConfig describes one deployment home (Table 1): occupants,
// Wi-Fi devices, neighbor density, weekday/weekend staging, diurnal
// phase and seed. It configures single-home scenarios via WithHome.
type HomeConfig = deploy.HomeConfig

// BinSample is one logging-bin observation from a single-home run —
// the value Scenario.Bins streams: per-channel occupancy, cumulative
// percentage, and the battery-free sensor's update rate and net
// harvested power at the configured distance.
type BinSample = deploy.BinSample

// HomeRecord is one fleet home's streamed summary — the value
// Scenario.Homes yields, in home-index order at any worker count.
type HomeRecord = fleet.HomeRecord

// HomeDeviceRecord is the lifecycle slice of a HomeRecord, present
// when the fleet population carries a device mix.
type HomeDeviceRecord = fleet.DeviceRecord

// DeviceMix holds per-archetype device shares for the lifecycle
// engine (WithDevices). Parse the CLI form with ParseDeviceMix; the
// JSON form is a {"name": weight} object.
type DeviceMix = lifecycle.Mix

// PaperHomes returns the six homes of Table 1 — ready-made WithHome
// configurations for replaying the paper's §6 deployments.
func PaperHomes() []HomeConfig { return deploy.PaperHomes() }

// ParseDeviceMix parses the CLI device-mix form, e.g.
// "temp=0.5,camera=0.3,jawbone=0.2". Valid archetype names are temp,
// rtemp, camera, jawbone, liion and nimh.
func ParseDeviceMix(s string) (DeviceMix, error) { return lifecycle.ParseMix(s) }

// StartProfiling begins CPU profiling to cpuPath (if non-empty) and
// arranges for a heap profile at memPath (if non-empty) — the
// conventional -cpuprofile/-memprofile behavior the CLIs wire up. The
// returned stop function flushes both; callers must invoke it on every
// exit path that should produce profiles. While the CPU profile records,
// every fleet home runs under pprof goroutine labels (phase, home), so
// the profile cuts by home whether or not the run is traced; without
// one no home pays for labels.
func StartProfiling(cpuPath, memPath string) (stop func() error, err error) {
	return profiling.Start(cpuPath, memPath)
}

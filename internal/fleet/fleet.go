// Package fleet scales the paper's six-home deployment study (§6) to
// thousands of homes: a population of synthetic households is drawn
// from parameter distributions, each home runs the same single-home
// packet-level sampler as the paper study through its batched kernel
// (deploy.Sampler's RunBatch, or RunBatchCoarse on the coarse tier),
// and the per-home logs are folded into mergeable fleet-level
// aggregates (internal/stats) rather than materialized.
//
// The design goals, in order:
//
//  1. Determinism independent of parallelism. Every home derives its
//     configuration and randomness from (fleet seed, home index) via
//     internal/xrand label streams, so a home simulates identically no
//     matter which worker runs it. Every home's summary — per-bin
//     columns, scalar means, lifecycle ledger bins — is committed by one
//     reducer in home-index order (through a bounded ring of slots
//     when sharded), so -workers=1 and -workers=N produce bit-for-bit
//     identical output.
//
//  2. Bounded memory. A full per-home log (1440 bins x 3 channels for a
//     24 h deployment) is never kept: workers stream bin samples into
//     fixed-size sketches and emit one small scalar summary per home.
//     Memory is O(workers + sketch resolution), not O(homes).
//
//  3. One code path with the paper study. The fleet, the §6
//     reproduction (deploy.Run) and the facade's single-home runs all
//     drive deploy.Sampler.RunBatch, so fidelity fixes flow to each;
//     the fleet and the facade fold a home's means with the same
//     deploy.BinBatch.Means.
package fleet

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/deploy"
	"repro/internal/lifecycle"
)

// Population describes the distributions the fleet's households are
// drawn from. Each home's parameters are sampled independently from its
// own label stream.
type Population struct {
	// MinUsers and MaxUsers bound the uniformly drawn occupant count.
	MinUsers int `json:"min_users"`
	MaxUsers int `json:"max_users"`
	// MaxDevicesPerUser bounds each occupant's Wi-Fi devices (>= 1 each).
	MaxDevicesPerUser int `json:"max_devices_per_user"`
	// MeanNeighborAPs is the mean neighborhood density around which each
	// home's neighbor-AP count is drawn; dense urban deployments push
	// the tail hard.
	MeanNeighborAPs float64 `json:"mean_neighbor_aps"`
	// MaxNeighborAPs caps the neighbor draw (channel table sizes are
	// finite in the single-home runner).
	MaxNeighborAPs int `json:"max_neighbor_aps"`
	// WeekendFraction is the probability a home's 24 h log was staged
	// over a weekend (2/7 for uniformly scheduled deployments).
	WeekendFraction float64 `json:"weekend_fraction"`
	// MinSensorFt and MaxSensorFt bound the uniformly drawn sensor
	// placement distance (the paper fixes 10 ft; a fleet varies it).
	MinSensorFt float64 `json:"min_sensor_ft"`
	MaxSensorFt float64 `json:"max_sensor_ft"`
	// Devices holds per-archetype population shares for the device-
	// lifecycle engine (internal/lifecycle): each home is assigned one
	// archetype drawn from these weights on its own label stream. The
	// zero mix (the default) disables the engine and runs the classic
	// stateless aggregates only.
	Devices lifecycle.Mix `json:"devices"`
}

// Lifecycle reports whether the population enables the stateful
// device-lifecycle engine.
func (p Population) Lifecycle() bool { return p.Devices.Enabled() }

// DefaultPopulation returns a mixed urban/suburban household
// population anchored on Table 1's observed ranges (1-3 users, 1-6
// devices, 4-24 neighboring APs).
func DefaultPopulation() Population {
	return Population{
		MinUsers:          1,
		MaxUsers:          4,
		MaxDevicesPerUser: 3,
		MeanNeighborAPs:   12,
		MaxNeighborAPs:    40,
		WeekendFraction:   2.0 / 7.0,
		MinSensorFt:       5,
		MaxSensorFt:       15,
	}
}

// Config parameterizes one fleet run.
type Config struct {
	// Homes is the number of households to simulate.
	Homes int
	// Seed drives all randomness; identical (Seed, Homes, knobs) runs
	// are bit-for-bit reproducible at any worker count.
	Seed uint64
	// Workers is the simulation parallelism; 0 means GOMAXPROCS.
	// Workers never affects results, only wall-clock time.
	Workers int
	// Hours is each home's deployment duration (24 in the paper). It is
	// snapped down to a whole number of BinWidth bins, matching what
	// the single-home runner actually simulates.
	Hours float64
	// BinWidth is the occupancy logging resolution. The fleet default
	// (1 h) is coarser than the paper's 60 s: population aggregates over
	// thousands of homes recover the statistics that per-home plots
	// needed fine bins for.
	BinWidth time.Duration
	// Window is the packet-level sample simulated per bin.
	Window time.Duration
	// Population holds the household distributions; the zero value
	// selects DefaultPopulation.
	Population Population
	// Exact forces every home's per-bin rectifier solve onto the direct
	// operating-point solver, bypassing the error-bounded interpolation
	// surface. The surface path (default) makes identical boot decisions
	// and stays within its certified ε of the exact solver; -exact exists
	// to validate that claim on real fleet runs.
	Exact bool
	// Coarse selects the error-bounded coarse sampling tier
	// (deploy.RunBatchCoarse): only anchor bins run the packet-level
	// event simulation, the bins between are proxied from the home's
	// exact offered-load plan, and any bin whose boot/silence decision
	// is not provably stable escalates back to the event simulation.
	// Boot decisions stay bit-identical to the exact tier; aggregate
	// magnitudes carry the certified ε (see deploy.CoarseOptions).
	// Incompatible with a device-lifecycle population: the lifecycle
	// ledger integrates per-bin magnitudes over time, which would
	// compound the proxy ε outside its certified bound. Refused below
	// deploy.CoarseCertifiedWindow, where the ε is not certified.
	Coarse bool
	// Policy decides what a per-home panic does to the run; the zero
	// value fails fast (see FailurePolicy).
	Policy FailurePolicy
	// Deadline bounds the run's wall-clock time; 0 means none. When it
	// expires the run keeps its committed home prefix, writes a final
	// checkpoint (if checkpointing), and returns a Result marked
	// Partial with reason PartialDeadline instead of an error. A run
	// whose every home committed before the expiry is complete.
	Deadline time.Duration
	// MaxFailedHomes caps quarantined homes under a Skip policy; 0
	// means unlimited. Exceeding it ends the run with a partial Result
	// (reason PartialFailureBudget) covering the committed prefix.
	MaxFailedHomes int
}

// DefaultConfig returns a 1000-home, 24-hour fleet run.
func DefaultConfig() Config {
	return Config{
		Homes:      1000,
		Seed:       1,
		Hours:      24,
		BinWidth:   time.Hour,
		Window:     10 * time.Millisecond,
		Population: DefaultPopulation(),
	}
}

// withDefaults fills zero fields and validates the configuration.
func (c Config) withDefaults() (Config, error) {
	d := DefaultConfig()
	if c.Hours == 0 {
		c.Hours = d.Hours
	}
	if c.BinWidth == 0 {
		c.BinWidth = d.BinWidth
	}
	if c.Window == 0 {
		c.Window = d.Window
	}
	if c.Population == (Population{}) {
		c.Population = d.Population
	} else if devOnly := (Population{Devices: c.Population.Devices}); devOnly == c.Population {
		// Only the device mix was specified (the CLI's -devices flag):
		// fill the household distributions from the default population.
		pop := d.Population
		pop.Devices = c.Population.Devices
		c.Population = pop
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	switch {
	case c.Homes <= 0:
		return c, fmt.Errorf("fleet: Homes = %d, need > 0", c.Homes)
	case c.Workers < 0:
		return c, fmt.Errorf("fleet: Workers = %d, need >= 0", c.Workers)
	case c.Hours <= 0 || c.BinWidth <= 0 || c.Window <= 0:
		return c, fmt.Errorf("fleet: non-positive duration (hours=%v bin=%v window=%v)",
			c.Hours, c.BinWidth, c.Window)
	}
	// Snap the duration to a whole number of bins: the single-home
	// runner truncates a partial trailing bin, and the serialized
	// report must describe what was actually simulated. The bin count
	// comes from the runner's own formula so the two layers cannot
	// disagree.
	nBins := (deploy.Options{Hours: c.Hours, BinWidth: c.BinWidth}).NumBins()
	if nBins < 1 {
		// Shorter than one bin would "run" every home over zero bins
		// and report fabricated all-zero aggregates.
		return c, fmt.Errorf("fleet: duration %.2gh is shorter than one %v bin", c.Hours, c.BinWidth)
	}
	c.Hours = float64(nBins) * c.BinWidth.Hours()
	p := c.Population
	if p.MinUsers <= 0 || p.MaxUsers < p.MinUsers || p.MaxDevicesPerUser <= 0 ||
		p.MeanNeighborAPs < 0 || p.MaxNeighborAPs <= 0 ||
		p.WeekendFraction < 0 || p.WeekendFraction > 1 ||
		p.MinSensorFt <= 0 || p.MaxSensorFt < p.MinSensorFt {
		return c, fmt.Errorf("fleet: invalid population %+v", p)
	}
	if err := p.Devices.Validate(); err != nil {
		return c, fmt.Errorf("fleet: %v", err)
	}
	if c.Coarse && p.Lifecycle() {
		return c, fmt.Errorf("fleet: the coarse tier cannot run a device-lifecycle population (the ledger integrates per-bin magnitudes, compounding the proxy ε)")
	}
	if c.Coarse && c.Window < deploy.CoarseCertifiedWindow {
		return c, fmt.Errorf("fleet: the coarse tier cannot run at Window = %v, below its certified %v (a shorter window fits too few frames per anchor for the proxy ε to hold)",
			c.Window, deploy.CoarseCertifiedWindow)
	}
	switch {
	case c.Policy.Retry < 0:
		return c, fmt.Errorf("fleet: Policy.Retry = %d, need >= 0", c.Policy.Retry)
	case c.Deadline < 0:
		return c, fmt.Errorf("fleet: Deadline = %v, need >= 0", c.Deadline)
	case c.MaxFailedHomes < 0:
		return c, fmt.Errorf("fleet: MaxFailedHomes = %d, need >= 0", c.MaxFailedHomes)
	case c.MaxFailedHomes > 0 && !c.Policy.Skip:
		return c, fmt.Errorf("fleet: MaxFailedHomes requires a Skip policy (fail-fast aborts on the first failed home)")
	}
	return c, nil
}

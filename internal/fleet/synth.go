package fleet

import (
	"repro/internal/deploy"
	"repro/internal/lifecycle"
	"repro/internal/xrand"
)

// Home is one synthesized household: the single-home runner's
// configuration plus the fleet-varied sensor placement.
type Home struct {
	deploy.HomeConfig
	// SensorFt is the battery-free sensor's distance from the router.
	SensorFt float64 `json:"sensor_ft"`
}

// SynthesizeHome deterministically draws home i of the fleet. The draw
// depends only on (cfg.Seed, cfg.Population, i) — never on worker
// count, scheduling, or which homes were synthesized before — so any
// shard of the fleet can regenerate its homes independently.
func SynthesizeHome(cfg Config, i int) Home {
	return synthesizeHome(xrand.New(0), cfg, i)
}

// synthesizeHome is SynthesizeHome drawing through a caller-owned
// generator, which the hot loop reseeds in place instead of allocating
// one per home.
func synthesizeHome(rng *xrand.Rand, cfg Config, i int) Home {
	// Equivalent to NewFromLabel(seed, fmt.Sprintf("fleet/home/%d", i))
	// without the per-home formatting.
	rng.Reseed(xrand.LabelSeedInt(cfg.Seed, homeStem, i))
	p := cfg.Population

	users := p.MinUsers + rng.Intn(p.MaxUsers-p.MinUsers+1)
	devices := 0
	for u := 0; u < users; u++ {
		devices += 1 + rng.Intn(p.MaxDevicesPerUser)
	}
	// Neighbor density is over-dispersed: most homes see a handful of
	// APs, dense apartment blocks see dozens (Table 1 spans 4-24). A
	// Poisson count around an exponentially distributed neighborhood
	// density gives that heavy tail while keeping the draw a true count
	// distribution.
	aps := rng.Poisson(rng.Exp(p.MeanNeighborAPs))
	if aps > p.MaxNeighborAPs {
		aps = p.MaxNeighborAPs
	}

	return Home{
		HomeConfig: deploy.HomeConfig{
			ID:          i + 1,
			Users:       users,
			Devices:     devices,
			NeighborAPs: aps,
			Weekend:     rng.Bool(p.WeekendFraction),
			// Diurnal phase: deployments start whenever the installer
			// arrived, which is what spreads the fleet's load peaks.
			StartHour: rng.Intn(24),
			Seed:      rng.Uint64(),
		},
		SensorFt: rng.Uniform(p.MinSensorFt, p.MaxSensorFt),
	}
}

// SynthesizeDevice deterministically draws home i's device archetype
// from the population's lifecycle mix. The draw lives on its own label
// stream ("fleet/device/i"), independent of the home-parameter stream,
// so enabling the lifecycle engine never perturbs the synthesized
// households (classic aggregates stay bit-identical). It panics when
// the mix is disabled; callers gate on Population.Lifecycle.
func SynthesizeDevice(cfg Config, i int) lifecycle.Kind {
	return synthesizeDevice(xrand.New(0), cfg, i)
}

// synthesizeDevice is SynthesizeDevice drawing through a caller-owned
// generator, reseeded in place by the hot loop.
func synthesizeDevice(rng *xrand.Rand, cfg Config, i int) lifecycle.Kind {
	rng.Reseed(xrand.LabelSeedInt(cfg.Seed, "fleet/device/", i))
	return cfg.Population.Devices.Pick(rng.Float64())
}

package main

import (
	"path/filepath"
	"time"

	powifi "repro"
	"repro/internal/fleet"
	"repro/internal/harvester"
	"repro/internal/lifecycle"
)

// workload is one fleet shape the benchmark runs. Each child process
// runs homes households at the fleet defaults (24 × 1 h bins, 10 ms
// window) unless a field says otherwise. README.md and BENCHMARK.json
// say why each was chosen.
type workload struct {
	name    string
	homes   int // per child process
	workers int
	horizon time.Duration // 0 keeps the fleet default of 24 h
	coarse  bool
	// observed runs with telemetry, tracing and checkpointing on: the
	// shape of a production sweep.
	observed bool
	// devices draws each home's lifecycle device from sixArchetypes.
	devices bool
}

// defaultSeed is the seed the pinned digests are recorded at.
const defaultSeed = 42

// workloads are sized so that one child process takes 1–4 s on a
// 2-core host, which fits several children, and so medians, into one
// pass.
var workloads = []workload{
	// The surface build is most of the run. 400 homes rather than 100 so
	// that homes_per_s times ~0.4 s of simulation, not ~0.1 s, whose
	// run-to-run spread was 18%.
	{name: "cold-start", homes: 400, workers: 1},
	// Bound by the event kernel; the only workload on the sharded path.
	{name: "sweep-exact", homes: 4000, workers: 2},
	// Few bins run the kernel: fits, guards, checkpoint I/O and
	// observability weigh.
	{name: "sweep-coarse-observed", homes: 8000, workers: 1, coarse: true, observed: true},
	// Two surfaces, the camera and charger chains, ledger and merge.
	{name: "lifecycle-72h", homes: 600, workers: 1, horizon: 72 * time.Hour, devices: true},
}

// pinKey names one pinned fleet digest: a workload at a seed and a
// per-child home count.
type pinKey struct {
	workload string
	seed     uint64
	homes    int
}

// pinnedDigests are the sha256 digests of each workload's report
// "fleet" section at the default seed and size. The section is
// deterministic and identical at any worker count, so a change that
// moves a digest changed what the simulator computes. Re-pin only for
// a change that means to (see README.md).
var pinnedDigests = map[pinKey]string{
	{"cold-start", defaultSeed, 400}:             "38934c646ef27bc526514253394c4d3aaded73756a39868111b243559ab72588",
	{"sweep-exact", defaultSeed, 4000}:           "177a23e8708c8e2def547534da2387f70da71b8ecf261d7c721efd0790c687e7",
	{"sweep-coarse-observed", defaultSeed, 8000}: "ea141ce362f82735e96e0cdc9e2cc13b29d11fa270be63b744557d91fb80102b",
	{"lifecycle-72h", defaultSeed, 600}:          "1cd928e7ab503dcfecce209ec9a4aa872df72c8010fc900053abbcc2b14e1f13",
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sixArchetypes is the mixed device population of the lifecycle
// benchmark: every archetype, weighted toward the sensors.
func sixArchetypes() lifecycle.Mix {
	var m lifecycle.Mix
	m[lifecycle.TempSensor] = 0.3
	m[lifecycle.RechargingTemp] = 0.15
	m[lifecycle.Camera] = 0.2
	m[lifecycle.Jawbone] = 0.15
	m[lifecycle.LiIon] = 0.1
	m[lifecycle.NiMH] = 0.1
	return m
}

// harvesters returns the assemblies whose surfaces the workload
// queries: the battery-free sensor chain always, the bq25570 chain of
// the battery-backed archetypes when homes carry devices.
func (w workload) harvesters() []*harvester.Harvester {
	hs := []*harvester.Harvester{harvester.NewBatteryFree()}
	if w.devices {
		hs = append(hs, harvester.NewBatteryCharging())
	}
	return hs
}

// options builds the scenario a user would: homes households at seed.
// obs turns telemetry and tracing on; the checkpoint of an observed
// workload goes into dir.
func (w workload) options(homes int, seed uint64, dir string, obs bool) []powifi.Option {
	opts := []powifi.Option{
		powifi.WithHomes(homes),
		powifi.WithSeed(seed),
		powifi.WithWorkers(w.workers),
	}
	if w.horizon > 0 {
		opts = append(opts, powifi.WithHorizon(w.horizon))
	}
	if w.coarse {
		opts = append(opts, powifi.WithCoarse(true))
	}
	if w.devices {
		opts = append(opts, powifi.WithDevices(sixArchetypes()))
	}
	if w.observed {
		opts = append(opts, powifi.WithCheckpoint(filepath.Join(dir, "checkpoint.json")))
	}
	if obs {
		opts = append(opts, powifi.WithTelemetry(powifi.NewTelemetry()), powifi.WithTrace(powifi.NewTrace()))
	}
	return opts
}

// fleetConfig is the engine configuration options resolves to, for the
// traced pass's direct calls into internal/fleet. The traced pass checks
// that both give the same fleet digest.
func (w workload) fleetConfig(homes int, seed uint64) fleet.Config {
	cfg := fleet.DefaultConfig()
	cfg.Homes = homes
	cfg.Seed = seed
	cfg.Workers = w.workers
	if w.horizon > 0 {
		cfg.Hours = w.horizon.Hours()
	}
	cfg.Coarse = w.coarse
	if w.devices {
		cfg.Population.Devices = sixArchetypes()
	}
	return cfg
}

// bins is the number of logging bins each home runs.
func (w workload) bins() int {
	cfg := w.fleetConfig(1, 0)
	return int(cfg.Hours*3600/cfg.BinWidth.Seconds() + 0.5)
}

// tracedHomes is how many homes one traced child recomposes: a quarter
// of the workload's homes, but at least 200 (or all of them) so that
// the per-home p90 has ten samples beyond it.
func tracedHomes(homes int) int {
	h := homes / 4
	if h < 200 {
		h = min(200, homes)
	}
	return h
}

package powifi_test

import (
	"context"
	"fmt"
	"time"

	powifi "repro"
)

// ExampleNewScenario builds a fleet scenario with functional options
// and shows its declarative JSON form — the same document LoadScenario
// reads and the CLIs' -scenario flag runs.
func ExampleNewScenario() {
	sc, err := powifi.NewScenario(
		powifi.WithHomes(500),
		powifi.WithSeed(42),
		powifi.WithHorizon(24*time.Hour),
	)
	if err != nil {
		panic(err)
	}
	data, err := sc.MarshalJSON()
	if err != nil {
		panic(err)
	}
	fmt.Println(sc.Mode())
	fmt.Println(string(data))

	// The JSON form round-trips: LoadScenario rebuilds the scenario.
	loaded, err := powifi.LoadScenario(data)
	if err != nil {
		panic(err)
	}
	fmt.Println(loaded.Mode())
	// Output:
	// fleet
	// {"schema":1,"mode":"fleet","homes":500,"seed":42,"horizon":"24h0m0s"}
	// fleet
}

// ExampleScenario_Run executes a small fleet under a context and reads
// the unified, versioned report.
func ExampleScenario_Run() {
	sc, err := powifi.NewScenario(
		powifi.WithHomes(3),
		powifi.WithSeed(9),
		powifi.WithWorkers(2), // never affects results, only wall clock
		powifi.WithHorizon(2*time.Hour),
		powifi.WithBinWidth(30*time.Minute),
		powifi.WithWindow(2*time.Millisecond),
	)
	if err != nil {
		panic(err)
	}
	rep, err := sc.Run(context.Background())
	if err != nil {
		panic(err)
	}
	fmt.Printf("schema %d, mode %s\n", rep.Schema, rep.Mode)
	fmt.Printf("%d homes, %d bins logged\n", rep.Fleet.Homes, rep.Fleet.TotalBins)
	// Output:
	// schema 1, mode fleet
	// 3 homes, 12 bins logged
}

// ExampleScenario_Bins streams a single-home deployment bin by bin —
// the §6 runner as a Go iterator. The bins arrive once the home's batch
// is simulated; breaking out of the loop stops delivery.
func ExampleScenario_Bins() {
	sc, err := powifi.NewScenario(
		powifi.WithHome(powifi.PaperHomes()[0]), // Table 1, home 1
		powifi.WithSensorDistance(10),
		powifi.WithHorizon(2*time.Hour),
		powifi.WithBinWidth(30*time.Minute),
		powifi.WithWindow(2*time.Millisecond),
	)
	if err != nil {
		panic(err)
	}
	bins, responsive := 0, 0
	for s, err := range sc.Bins(context.Background()) {
		if err != nil {
			panic(err)
		}
		bins++
		if s.SensorRate > 0 {
			responsive++
		}
	}
	fmt.Printf("%d bins simulated, sensor responsive in %d\n", bins, responsive)
	// Output:
	// 4 bins simulated, sensor responsive in 4
}

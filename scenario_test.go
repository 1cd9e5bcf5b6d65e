package powifi_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	powifi "repro"
)

// tinyFleet is a fleet scenario small enough for unit tests: 3 homes
// × 4 bins, fixed seed.
func tinyFleet(t *testing.T, extra ...powifi.Option) *powifi.Scenario {
	t.Helper()
	opts := append([]powifi.Option{
		powifi.WithHomes(3),
		powifi.WithSeed(9),
		powifi.WithWorkers(2),
		powifi.WithHorizon(2 * time.Hour),
		powifi.WithBinWidth(30 * time.Minute),
		powifi.WithWindow(2 * time.Millisecond),
	}, extra...)
	sc, err := powifi.NewScenario(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// tinyHome is a single-home scenario: home 2 of Table 1 over 4 bins.
func tinyHome(t *testing.T, extra ...powifi.Option) *powifi.Scenario {
	t.Helper()
	opts := append([]powifi.Option{
		powifi.WithHome(powifi.PaperHomes()[1]),
		powifi.WithSensorDistance(10),
		powifi.WithHorizon(2 * time.Hour),
		powifi.WithBinWidth(30 * time.Minute),
		powifi.WithWindow(2 * time.Millisecond),
	}, extra...)
	sc, err := powifi.NewScenario(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestScenarioModes(t *testing.T) {
	if got := tinyFleet(t).Mode(); got != powifi.ModeFleet {
		t.Errorf("fleet scenario mode %q", got)
	}
	if got := tinyHome(t).Mode(); got != powifi.ModeHome {
		t.Errorf("home scenario mode %q", got)
	}
	sc, err := powifi.NewScenario(powifi.WithExperiment("fig9"))
	if err != nil {
		t.Fatal(err)
	}
	if got := sc.Mode(); got != powifi.ModeExperiment {
		t.Errorf("experiment scenario mode %q", got)
	}
}

func TestScenarioOptionConflicts(t *testing.T) {
	cases := []struct {
		name string
		opts []powifi.Option
		want string
	}{
		{"experiment+homes", []powifi.Option{powifi.WithExperiment("fig9"), powifi.WithHomes(5)}, "accepts only"},
		{"experiment+home", []powifi.Option{powifi.WithExperiment("fig9"), powifi.WithHome(powifi.PaperHomes()[0])}, "accepts only"},
		{"home+homes", []powifi.Option{powifi.WithHome(powifi.PaperHomes()[0]), powifi.WithHomes(5)}, "conflicts"},
		{"home+workers", []powifi.Option{powifi.WithHome(powifi.PaperHomes()[0]), powifi.WithWorkers(2)}, "conflicts"},
		{"fleet+sensor", []powifi.Option{powifi.WithHomes(5), powifi.WithSensorDistance(10)}, "requires WithHome"},
		{"fleet+full", []powifi.Option{powifi.WithHomes(5), powifi.WithFull(true)}, "experiment"},
		{"bad sensor", []powifi.Option{powifi.WithHome(powifi.PaperHomes()[0]), powifi.WithSensorDistance(-1)}, "need > 0"},
		{"NaN sensor", []powifi.Option{powifi.WithHome(powifi.PaperHomes()[0]), powifi.WithSensorDistance(math.NaN())}, "sensor distance NaN ft"},
		{"infinite sensor", []powifi.Option{powifi.WithHome(powifi.PaperHomes()[0]), powifi.WithSensorDistance(math.Inf(1))}, "sensor distance +Inf ft"},
		{"empty experiment", []powifi.Option{powifi.WithExperiment("")}, "empty experiment"},
		{"nil progress", []powifi.Option{powifi.WithProgress(nil)}, "nil progress"},
		{"zero device mix", []powifi.Option{powifi.WithDevices(powifi.DeviceMix{})}, "positive share"},
		{"home+coarse", []powifi.Option{powifi.WithHome(powifi.PaperHomes()[0]), powifi.WithCoarse(true)}, "only to fleet"},
		{"experiment+coarse", []powifi.Option{powifi.WithExperiment("fig9"), powifi.WithCoarse(true)}, "accepts only"},
		{"home+checkpoint", []powifi.Option{powifi.WithHome(powifi.PaperHomes()[0]), powifi.WithCheckpoint("x.ckpt")}, "only to fleet"},
		{"experiment+checkpoint", []powifi.Option{powifi.WithExperiment("fig9"), powifi.WithCheckpoint("x.ckpt")}, "accepts only"},
		{"empty checkpoint", []powifi.Option{powifi.WithCheckpoint("")}, "empty checkpoint"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := powifi.NewScenario(tc.opts...)
			if err == nil {
				t.Fatal("invalid scenario accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q missing %q", err, tc.want)
			}
		})
	}
}

// TestScenarioJSONRoundTrip is the identity check for the declarative
// form: LoadScenario(MarshalJSON(s)) must carry exactly the options of
// s — for every serializable option, including explicit zeros — so the
// re-marshaled bytes and the loaded scenario both match.
func TestScenarioJSONRoundTrip(t *testing.T) {
	pop := powifi.DefaultFleetPopulation()
	pop.MaxUsers = 6
	mix, err := powifi.ParseDeviceMix("temp=0.5,camera=0.3,jawbone=0.2")
	if err != nil {
		t.Fatal(err)
	}
	home := powifi.PaperHomes()[2]

	scenarios := map[string]*powifi.Scenario{}
	build := func(name string, opts ...powifi.Option) {
		sc, err := powifi.NewScenario(opts...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		scenarios[name] = sc
	}
	// Every serializable option at once, per mode — including zero
	// values (seed 0, exact false) that must survive the round trip.
	build("fleet-all",
		powifi.WithHomes(42), powifi.WithSeed(0), powifi.WithWorkers(3),
		powifi.WithHorizon(36*time.Hour), powifi.WithBinWidth(20*time.Minute),
		powifi.WithWindow(5*time.Millisecond), powifi.WithExact(false),
		powifi.WithPopulation(pop), powifi.WithDevices(mix))
	build("fleet-coarse",
		powifi.WithHomes(7), powifi.WithCoarse(true))
	build("fleet-coarse-zero",
		powifi.WithHomes(7), powifi.WithCoarse(false)) // explicit zero survives
	build("home-all",
		powifi.WithHome(home), powifi.WithSensorDistance(7.5),
		powifi.WithSeed(11), powifi.WithHorizon(90*time.Minute),
		powifi.WithBinWidth(15*time.Minute), powifi.WithWindow(3*time.Millisecond),
		powifi.WithExact(true), powifi.WithDevices(mix))
	build("experiment-all",
		powifi.WithExperiment("fig13"), powifi.WithFull(true), powifi.WithExact(true))
	build("empty") // all defaults: still round-trips

	for name, sc := range scenarios {
		t.Run(name, func(t *testing.T) {
			data, err := json.Marshal(sc)
			if err != nil {
				t.Fatal(err)
			}
			loaded, err := powifi.LoadScenario(data)
			if err != nil {
				t.Fatalf("LoadScenario(%s): %v", data, err)
			}
			if !reflect.DeepEqual(sc, loaded) {
				t.Errorf("loaded scenario differs:\nwant %+v\ngot  %+v\njson %s", sc, loaded, data)
			}
			data2, err := json.Marshal(loaded)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, data2) {
				t.Errorf("re-marshal not identical:\nfirst  %s\nsecond %s", data, data2)
			}
		})
	}
}

func TestLoadScenarioRejects(t *testing.T) {
	cases := []struct {
		name, data, want string
	}{
		{"unknown field", `{"schema":1,"bogus":1}`, "bogus"},
		{"missing schema", `{"homes":5}`, "schema 0 unsupported"},
		{"future schema", `{"schema":99}`, "schema 99 unsupported"},
		{"bad duration", `{"schema":1,"horizon":"fortnight"}`, "horizon"},
		{"bad mix name", `{"schema":1,"devices":{"toaster":1}}`, "unknown device archetype"},
		{"mode mismatch", `{"schema":1,"mode":"home","homes":5}`, "resolve to"},
		{"conflicting options", `{"schema":1,"experiment":"fig9","homes":5}`, "accepts only"},
		{"trailing data", `{"schema":1}{"schema":1}`, "trailing"},
		{"not json", `homes=5`, "invalid character"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := powifi.LoadScenario([]byte(tc.data))
			if err == nil {
				t.Fatalf("LoadScenario(%q) accepted", tc.data)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q missing %q", err, tc.want)
			}
		})
	}
}

// TestScenarioRunFleetReport pins the unified report envelope and its
// agreement with the deprecated RunFleet facade.
func TestScenarioRunFleetReport(t *testing.T) {
	rep, err := tinyFleet(t).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != powifi.ReportSchema || rep.Version != powifi.Version || rep.Mode != powifi.ModeFleet {
		t.Errorf("envelope wrong: %+v", rep)
	}
	if rep.Fleet == nil || rep.Home != nil || rep.Experiment != nil {
		t.Fatal("exactly the fleet section must be populated")
	}
	if rep.Fleet.TotalBins != 12 {
		t.Errorf("total bins = %d, want 12", rep.Fleet.TotalBins)
	}
	// The deprecated facade and the scenario run the same engine.
	legacy, err := powifi.RunFleet(powifi.FleetConfig{
		Homes: 3, Seed: 9, Workers: 2, Hours: 2,
		BinWidth: 30 * time.Minute, Window: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(legacy.Summarize(), *rep.Fleet) {
		t.Error("Scenario.Run and RunFleet summaries diverged")
	}
}

// TestScenarioWorkerInvariance is the acceptance check on the new API:
// fleet results stay bit-for-bit worker-count invariant through
// Scenario.Run (serialized reports byte-identical) and through the
// Homes iterator (identical records in identical order).
func TestScenarioWorkerInvariance(t *testing.T) {
	ctx := context.Background()
	runJSON := func(workers int) []byte {
		sc, err := powifi.NewScenario(
			powifi.WithHomes(3), powifi.WithSeed(9), powifi.WithWorkers(workers),
			powifi.WithHorizon(2*time.Hour), powifi.WithBinWidth(30*time.Minute),
			powifi.WithWindow(2*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sc.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(runJSON(1), runJSON(8)) {
		t.Error("Scenario.Run reports differ between 1 and 8 workers")
	}

	collect := func(workers int) []powifi.HomeRecord {
		sc, err := powifi.NewScenario(
			powifi.WithHomes(3), powifi.WithSeed(9), powifi.WithWorkers(workers),
			powifi.WithHorizon(2*time.Hour), powifi.WithBinWidth(30*time.Minute),
			powifi.WithWindow(2*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		var recs []powifi.HomeRecord
		for r, err := range sc.Homes(ctx) {
			if err != nil {
				t.Fatal(err)
			}
			recs = append(recs, r)
		}
		return recs
	}
	serial, parallel := collect(1), collect(8)
	if len(serial) != 3 {
		t.Fatalf("got %d records, want 3", len(serial))
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("Homes records differ between 1 and 8 workers:\n1: %+v\n8: %+v", serial, parallel)
	}
}

// TestScenarioBins pins the single-home iterator: bins arrive in
// order, agree with Run's reduced report, and breaking out stops the
// stream.
func TestScenarioBins(t *testing.T) {
	ctx := context.Background()
	sc := tinyHome(t)
	var bins []powifi.BinSample
	for b, err := range sc.Bins(ctx) {
		if err != nil {
			t.Fatal(err)
		}
		bins = append(bins, b)
	}
	if len(bins) != 4 {
		t.Fatalf("got %d bins, want 4", len(bins))
	}
	sumCum := 0.0
	for i, b := range bins {
		if b.Bin != i {
			t.Errorf("bin %d has index %d", i, b.Bin)
		}
		sumCum += b.CumulativePct
	}
	rep, err := sc.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rep.Home.MeanCumulativePct, sumCum/4; got != want {
		t.Errorf("Run mean %v != Bins-derived mean %v", got, want)
	}
	if rep.Home.Bins != 4 {
		t.Errorf("report bins = %d, want 4", rep.Home.Bins)
	}

	// Early break: the iterator must just stop.
	n := 0
	for _, err := range sc.Bins(ctx) {
		if err != nil {
			t.Fatal(err)
		}
		if n++; n == 2 {
			break
		}
	}
	if n != 2 {
		t.Errorf("broke after 2 bins but saw %d", n)
	}

	// Mode errors surface through the iterator, once.
	errs := 0
	for _, err := range tinyFleet(t).Bins(ctx) {
		if err == nil {
			t.Fatal("fleet scenario Bins yielded a sample")
		}
		errs++
	}
	if errs != 1 {
		t.Errorf("expected exactly one error, got %d", errs)
	}

}

// TestHomeRejectsNonPositiveDurations pins the option check: Run and
// Bins refuse a window, bin width or horizon that is not positive — an
// explicit zero included, which must not fall back to the default —
// with an error naming the value, and a horizon shorter than one bin; a
// scenario document reaches the same check. Bins yields the error once
// rather than an empty stream that would read as "no data". A fleet
// scenario's Run and Homes refuse an explicit zero the same way.
func TestHomeRejectsNonPositiveDurations(t *testing.T) {
	ctx := context.Background()
	home := powifi.WithHome(powifi.PaperHomes()[0])
	cases := []struct {
		name     string
		scenario func() (*powifi.Scenario, error)
		want     string
		fleet    bool
	}{
		{"window", func() (*powifi.Scenario, error) {
			return powifi.NewScenario(home, powifi.WithWindow(-5*time.Millisecond),
				powifi.WithHorizon(2*time.Hour), powifi.WithBinWidth(time.Hour))
		}, "non-positive window -5ms", false},
		{"bin width", func() (*powifi.Scenario, error) {
			return powifi.NewScenario(home, powifi.WithBinWidth(-time.Minute), powifi.WithHorizon(2*time.Hour))
		}, "non-positive bin width -1m0s", false},
		{"horizon", func() (*powifi.Scenario, error) {
			return powifi.NewScenario(home, powifi.WithHorizon(-2*time.Hour))
		}, "non-positive horizon -2h", false},
		{"horizon shorter than one bin", func() (*powifi.Scenario, error) {
			return powifi.NewScenario(home, powifi.WithHorizon(30*time.Second)) // the default bin is 60 s
		}, "shorter than one", false},
		{"scenario document", func() (*powifi.Scenario, error) {
			return powifi.LoadScenario([]byte(`{"schema":1,"home":{"id":1,"users":2,"devices":6,"neighbor_aps":17},` +
				`"window":"-5ms","horizon":"2h","bin":"1h"}`))
		}, "non-positive window -5ms", false},
		{"zero window", func() (*powifi.Scenario, error) {
			return powifi.NewScenario(home, powifi.WithWindow(0), powifi.WithHorizon(2*time.Hour))
		}, "non-positive window 0s", false},
		{"zero bin width", func() (*powifi.Scenario, error) {
			return powifi.NewScenario(home, powifi.WithBinWidth(0), powifi.WithHorizon(2*time.Hour))
		}, "non-positive bin width 0s", false},
		{"zero horizon", func() (*powifi.Scenario, error) {
			return powifi.NewScenario(home, powifi.WithHorizon(0))
		}, "non-positive horizon 0h", false},
		{"zero-duration document", func() (*powifi.Scenario, error) {
			return powifi.LoadScenario([]byte(`{"schema":1,"home":{"id":1,"users":2,"devices":6,"neighbor_aps":17},` +
				`"window":"0s","horizon":"2h","bin":"1h"}`))
		}, "non-positive window 0s", false},
		{"fleet zero window", func() (*powifi.Scenario, error) {
			return powifi.NewScenario(powifi.WithHomes(2), powifi.WithWindow(0), powifi.WithHorizon(2*time.Hour))
		}, "non-positive window 0s", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc, err := tc.scenario()
			if err != nil {
				t.Fatal(err)
			}
			if rep, err := sc.Run(ctx); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Run = (%v, %v), want an error containing %q", rep, err, tc.want)
			}
			// The stream a scenario of this mode offers: Bins, or a
			// fleet's Homes.
			var errs []error
			if tc.fleet {
				for _, err := range sc.Homes(ctx) {
					errs = append(errs, err)
				}
			} else {
				for _, err := range sc.Bins(ctx) {
					errs = append(errs, err)
				}
			}
			for _, err := range errs {
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("stream yielded %v, want an error containing %q", err, tc.want)
				}
			}
			if saw := len(errs); saw != 1 {
				t.Errorf("stream yielded %d values, want exactly the error", saw)
			}
		})
	}
}

// TestScenarioCancellation pins ctx propagation through the facade:
// Run returns ctx.Err(), and the iterators yield it once.
func TestScenarioCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tinyFleet(t).Run(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("fleet Run under cancelled ctx: %v", err)
	}
	if _, err := tinyHome(t).Run(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("home Run under cancelled ctx: %v", err)
	}
	exp, err := powifi.NewScenario(powifi.WithExperiment("fig9"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exp.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("experiment Run under cancelled ctx: %v", err)
	}
	for _, err := range tinyHome(t).Bins(ctx) {
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Bins under cancelled ctx yielded %v", err)
		}
	}
	for _, err := range tinyFleet(t).Homes(ctx) {
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Homes under cancelled ctx yielded %v", err)
		}
	}

	// Mid-run: cancel from the progress callback once 2 of tinyHome's 4
	// bins are done.
	midRun := func() (context.Context, *powifi.Scenario) {
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		return ctx, tinyHome(t, powifi.WithProgress(func(done, _ int) {
			if done == 2 {
				cancel()
			}
		}))
	}
	ctx, sc := midRun()
	if _, err := sc.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("home Run cancelled mid-run: %v", err)
	}
	ctx, sc = midRun()
	bins, errs := 0, 0
	for _, err := range sc.Bins(ctx) {
		if errs > 0 {
			t.Fatal("Bins yielded past the cancellation error")
		}
		if err == nil {
			bins++
			continue
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Bins cancelled mid-run yielded %v", err)
		}
		errs++
	}
	if bins != 2 || errs != 1 {
		t.Errorf("Bins cancelled mid-run: %d bins then %d errors, want 2 then 1", bins, errs)
	}
}

// TestScenarioHomeDevices pins the single-home lifecycle wiring: one
// device per positive share, canonical order, JSON-safe sections.
func TestScenarioHomeDevices(t *testing.T) {
	mix, err := powifi.ParseDeviceMix("temp=1,jawbone=1")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tinyHome(t, powifi.WithDevices(mix)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	devs := rep.Home.Devices
	if len(devs) != 2 || devs[0].Kind != "temp" || devs[1].Kind != "jawbone" {
		t.Fatalf("devices wrong: %+v", devs)
	}
	if devs[0].Bins != 4 {
		t.Errorf("temp device visited %d bins, want 4", devs[0].Bins)
	}
	if devs[0].FinalSoCPct != nil {
		t.Error("battery-free sensor reports a state of charge")
	}
	if devs[1].FinalSoCPct == nil {
		t.Error("jawbone charger missing its state of charge")
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Errorf("lifecycle report not JSON-safe: %v", err)
	}
}

// TestScenarioCheckpointResume pins the SDK surface of checkpoint/
// resume: a run interrupted by breaking out of Homes leaves a
// checkpoint behind, a subsequent Run with the same scenario resumes
// from it and reports byte-identically to an uninterrupted run, and
// the completed run removes the file.
func TestScenarioCheckpointResume(t *testing.T) {
	baseline, err := tinyFleet(t, powifi.WithHomes(6)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(baseline)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "fleet.ckpt")
	sc := tinyFleet(t, powifi.WithHomes(6), powifi.WithCheckpoint(path))
	seen := 0
	for _, err := range sc.Homes(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		if seen++; seen == 2 {
			break
		}
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("interrupted Homes left no checkpoint: %v", err)
	}

	resumed, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("resumed report differs from uninterrupted run")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("checkpoint not removed after completion (stat: %v)", err)
	}

	// The checkpoint path is execution state: the scenario's JSON form
	// must not carry it.
	data, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "ckpt") {
		t.Errorf("scenario JSON leaked the checkpoint path: %s", data)
	}
}

// TestScenarioProgress pins the WithProgress callback on both run
// modes.
func TestScenarioProgress(t *testing.T) {
	var fleetProg []int
	sc := tinyFleet(t, powifi.WithProgress(func(done, total int) {
		if total != 3 {
			t.Errorf("fleet progress total = %d, want 3", total)
		}
		fleetProg = append(fleetProg, done)
	}))
	if _, err := sc.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fleetProg, []int{1, 2, 3}) {
		t.Errorf("fleet progress sequence %v", fleetProg)
	}

	var homeProg []int
	sc = tinyHome(t, powifi.WithProgress(func(done, total int) {
		if total != 4 {
			t.Errorf("home progress total = %d, want 4", total)
		}
		homeProg = append(homeProg, done)
	}))
	if _, err := sc.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(homeProg, []int{1, 2, 3, 4}) {
		t.Errorf("home progress sequence %v", homeProg)
	}

	// The Bins iterator fires the same per-bin progress as Run.
	homeProg = nil
	for _, err := range sc.Bins(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(homeProg, []int{1, 2, 3, 4}) {
		t.Errorf("Bins progress sequence %v", homeProg)
	}
}

// TestScenarioExperimentMatchesRunExperiment pins the experiment mode
// against the deprecated facade function.
func TestScenarioExperimentMatchesRunExperiment(t *testing.T) {
	sc, err := powifi.NewScenario(powifi.WithExperiment("table1"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if !powifi.RunExperiment("table1", &buf, true) {
		t.Fatal("table1 runner missing")
	}
	if rep.Experiment == nil || rep.Experiment.Output != buf.String() {
		t.Error("experiment scenario output diverged from RunExperiment")
	}
	if _, err := powifi.NewScenario(powifi.WithExperiment("nope")); err != nil {
		t.Fatalf("id validation happens at Run, not construction: %v", err)
	}
	bad, _ := powifi.NewScenario(powifi.WithExperiment("nope"))
	if _, err := bad.Run(context.Background()); err == nil || !strings.Contains(err.Error(), `unknown experiment "nope"`) {
		t.Errorf("unknown experiment error: %v", err)
	}
}

// TestExactIsPerRun pins that WithExact on an experiment scenario
// changes the solver of that run only. An exact fig13 loops on one
// goroutine while a non-exact single-home Bins stream and a small
// fleet Run execute; both must be bit-identical to the same runs made
// with nothing else in flight.
func TestExactIsPerRun(t *testing.T) {
	ctx := context.Background()
	home, err := powifi.NewScenario(
		powifi.WithHome(powifi.PaperHomes()[0]),
		powifi.WithHorizon(time.Hour),
		powifi.WithBinWidth(10*time.Minute),
		powifi.WithWindow(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	runHome := func() []powifi.BinSample {
		var bins []powifi.BinSample
		for b, err := range home.Bins(ctx) {
			if err != nil {
				t.Fatal(err)
			}
			bins = append(bins, b)
		}
		return bins
	}
	fleet := tinyFleet(t)
	runFleet := func() []byte {
		rep, err := fleet.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	wantBins, wantFleet := runHome(), runFleet()

	exp, err := powifi.NewScenario(powifi.WithExperiment("fig13"), powifi.WithExact(true))
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	first := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			if _, err := exp.Run(ctx); err != nil {
				done <- err
				return
			}
			if i == 0 {
				close(first)
			}
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
		}
	}()
	select {
	case <-first:
	case err := <-done:
		t.Fatal(err)
	}
	defer func() {
		close(stop)
		if err := <-done; err != nil {
			t.Error(err)
		}
	}()
	for i := 0; i < 3; i++ {
		if got := runHome(); !reflect.DeepEqual(got, wantBins) {
			t.Errorf("round %d: home bins differ from the serial run while an exact experiment runs", i)
		}
		if got := runFleet(); !bytes.Equal(got, wantFleet) {
			t.Errorf("round %d: fleet report differs from the serial run while an exact experiment runs", i)
		}
	}
}

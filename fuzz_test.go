package powifi

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// FuzzLoadScenario holds the scenario loader to its contract: arbitrary
// bytes must never panic (malformed input is an error), and any
// scenario it accepts must round-trip — marshal back to JSON that loads
// to the same scenario, with the same bytes.
func FuzzLoadScenario(f *testing.F) {
	// Accepted seeds: between them every settings key, so mutation
	// starts from documents that reach the round trip.
	accepted := []string{
		`{"schema":1}`,
		`{"schema":1,"homes":100,"seed":42,"bin":"1h","horizon":"24h","exact":true}`,
		`{"schema":1,"mode":"fleet","homes":8,"workers":2,"window":"2ms","failure_policy":{"skip":true}}`,
		`{"schema":1,"mode":"fleet","homes":500,"coarse":true,"failure_policy":{"retry":2,"skip":true},"deadline":"90s","max_failed":3}`,
		`{"schema":1,"homes":20,"population":{"min_users":1,"max_users":6,"max_devices_per_user":3,"mean_neighbor_aps":12,` +
			`"max_neighbor_aps":40,"weekend_fraction":0.25,"min_sensor_ft":5,"max_sensor_ft":15,"devices":{}},"devices":{"temp":1}}`,
		`{"schema":1,"mode":"home","home":{"id":3,"users":3,"devices":6,"neighbor_aps":10,"start_hour":16,"seed":103},` +
			`"sensor_ft":7.5,"devices":{"camera":0.3,"temp":0.5},"seed":11,"horizon":"90m"}`,
		`{"schema":1,"experiment":"occupancy","full":true}`,
	}
	for _, seed := range accepted {
		if _, err := LoadScenario([]byte(seed)); err != nil {
			f.Fatalf("accepted seed %s rejected: %v", seed, err)
		}
		f.Add([]byte(seed))
	}
	f.Add([]byte(`{"schema":2}`))
	f.Add([]byte(`{"schema":1,"bogus":true}`))
	f.Add([]byte(`{"schema":1,"bin":"not-a-duration"}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := LoadScenario(data)
		if err != nil {
			if s != nil {
				t.Fatalf("error %v but non-nil scenario", err)
			}
			return
		}
		if s == nil {
			t.Fatal("nil error and nil scenario")
		}
		out, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted scenario does not marshal: %v", err)
		}
		again, err := LoadScenario(out)
		if err != nil {
			t.Fatalf("marshaled form %s does not reload: %v", out, err)
		}
		if !reflect.DeepEqual(s, again) {
			t.Fatalf("reloaded scenario differs:\n first %+v\nsecond %+v", s.conf, again.conf)
		}
		out2, err := json.Marshal(again)
		if err != nil {
			t.Fatalf("reloaded scenario does not marshal: %v", err)
		}
		if string(out) != string(out2) {
			t.Fatalf("round-trip drift:\n first %s\nsecond %s", out, out2)
		}
	})
}

// runBudget is the wall time one small scenario of the tests below may
// take: two homes over at most 2 h of 1-minute bins and 1 ms windows,
// about a hundred times what such a run takes on a 2-vCPU host.
const runBudget = 5 * time.Second

// runWithin runs sc, failing the test if the run overruns runBudget
// instead of waiting on a run that may never return.
func runWithin(t *testing.T, sc *Scenario) (*Report, error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type result struct {
		rep *Report
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := sc.Run(ctx)
		done <- result{rep, err}
	}()
	select {
	case r := <-done:
		return r.rep, r.err
	case <-time.After(runBudget):
		t.Fatalf("run did not finish within %v", runBudget)
		return nil, nil
	}
}

// homeDoc and fleetDoc are the scenario documents the tests below
// build: one household, or a two-home fleet drawn from a population,
// each on one worker with 1-minute bins and a 1 ms window. Counts are
// int64, so a count past a 32-bit int reaches the decoder, which
// rejects it by field.
func homeDoc(users, devices, aps, startHour int64, horizon string) string {
	return fmt.Sprintf(`{"schema":1,"home":{"users":%d,"devices":%d,"neighbor_aps":%d,"start_hour":%d},`+
		`"horizon":%q,"bin":"1m","window":"1ms"}`, users, devices, aps, startHour, horizon)
}

func fleetDoc(minUsers, maxUsers, maxDevicesPerUser int64, meanAPs string, maxAPs int64, weekend, minFt, maxFt, horizon string) string {
	return fmt.Sprintf(`{"schema":1,"homes":2,"workers":1,"horizon":%q,"bin":"1m","window":"1ms","population":`+
		`{"min_users":%d,"max_users":%d,"max_devices_per_user":%d,"mean_neighbor_aps":%s,"max_neighbor_aps":%d,`+
		`"weekend_fraction":%s,"min_sensor_ft":%s,"max_sensor_ft":%s,"devices":{}}}`,
		horizon, minUsers, maxUsers, maxDevicesPerUser, meanAPs, maxAPs, weekend, minFt, maxFt)
}

// Scenario keys an out-of-range error may name.
var (
	homeKeys  = []string{"users", "devices", "neighbor_aps", "start_hour", "horizon"}
	fleetKeys = []string{"min_users", "max_users", "max_devices_per_user", "mean_neighbor_aps",
		"max_neighbor_aps", "weekend_fraction", "min_sensor_ft", "max_sensor_ft", "horizon"}
)

// loadAndRun loads doc and runs it within runBudget. A run that
// completes must give a report whose numbers are all finite (JSON
// cannot encode any other); an error must name one of keys.
func loadAndRun(t *testing.T, doc string, keys []string) error {
	t.Helper()
	sc, err := LoadScenario([]byte(doc))
	if err == nil {
		var rep *Report
		if rep, err = runWithin(t, sc); err == nil {
			if _, err := json.Marshal(rep); err != nil {
				t.Fatalf("%s: report does not encode: %v", doc, err)
			}
			return nil
		}
	}
	for _, k := range keys {
		if strings.Contains(err.Error(), k) {
			return err
		}
	}
	t.Fatalf("%s: error %q names none of %v", doc, err, keys)
	return err
}

// TestOutOfRangeCountsRejected: households and populations whose counts
// lie outside the engines' bounds are rejected by name, quickly. A home
// with negative counts used to run (reporting over 120% mean occupancy
// for -60 devices), 4e9 neighbor APs took ~20 s for one bin, and a
// population with a max_users or a max_neighbor_aps near the int range
// did not finish its first home.
func TestOutOfRangeCountsRejected(t *testing.T) {
	cases := []struct {
		name, doc string
		keys      []string
		want      string
	}{
		{"negative home counts", homeDoc(-3, -60, -2, -30, "1h"), homeKeys, "users = -3"},
		{"4e9 neighbor APs", homeDoc(1, 1, 4_000_000_000, 0, "1h"), homeKeys, "neighbor_aps"},
		{"max_users near the int range", fleetDoc(1, math.MaxInt64, 3, "12", 40, "0.25", "5", "15", "1h"), fleetKeys, "max_users"},
		{"max_neighbor_aps near the int range",
			fleetDoc(1, 4, 3, "1e15", 9_000_000_000_000_000_000, "0.25", "5", "15", "1h"), fleetKeys, "max_neighbor_aps"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := loadAndRun(t, tc.doc, tc.keys); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: got %v, want an error containing %q", tc.doc, err, tc.want)
			}
		})
	}
}

// FuzzScenarioNumbers holds the engines' checks to their contract over
// numbers rather than bytes: a home document built from fuzzed counts
// and start hour, and a fleet document built from fuzzed population
// fields, each over a fuzzed horizon of at most 2 h, must either fail
// with an error naming one of the fuzzed fields or run within runBudget
// to a report whose numbers are all finite.
func FuzzScenarioNumbers(f *testing.F) {
	type seed struct {
		users, devices, aps, startHour, minUsers, maxUsers, maxDevicesPerUser int64
		meanAPs                                                               float64
		maxAPs                                                                int64
		weekend, minFt, maxFt, hours                                          float64
	}
	for _, s := range []seed{
		{2, 6, 17, 20, 1, 4, 3, 12, 40, 2.0 / 7, 5, 15, 2},                            // Table 1's home 1; the default population
		{-3, -60, -2, -30, 0, -1, 0, -12, 0, -1, -5, -15, -2},                         // every field below its range
		{1, 1, 4_000_000_000, 24, 1, math.MaxInt64, 3, 1e15, 40, 1.5, 0, 1e300, 0.01}, // and above it
		{1, 1, 1, 0, 1, 1, 1, 1e15, 9_000_000_000_000_000_000, 0, 1, 1, math.NaN()},
		{1000, 10_000, 10_000, 23, 1000, 1000, 10, 1e6, 10_000, 1, 1e-3, 1e3, 1.5}, // at every bound
	} {
		f.Add(s.users, s.devices, s.aps, s.startHour, s.minUsers, s.maxUsers, s.maxDevicesPerUser,
			s.meanAPs, s.maxAPs, s.weekend, s.minFt, s.maxFt, s.hours)
	}
	f.Fuzz(func(t *testing.T, users, devices, aps, startHour, minUsers, maxUsers, maxDevicesPerUser int64,
		meanAPs float64, maxAPs int64, weekend, minFt, maxFt, hours float64) {
		if hours > 2 {
			hours = math.Mod(hours, 2)
		}
		horizon := strconv.FormatFloat(hours, 'g', -1, 64) + "h" // "NaNh" and "-Infh" do not parse
		loadAndRun(t, homeDoc(users, devices, aps, startHour, horizon), homeKeys)
		// JSON has no NaN or infinity: an infinity is written past the
		// float64 range, which the decoder rejects by field; a NaN
		// population is left to the engine's own tests.
		num := func(v float64) string {
			if math.IsInf(v, 0) {
				return strconv.FormatFloat(math.Copysign(1, v), 'g', -1, 64) + "e999"
			}
			return strconv.FormatFloat(v, 'g', -1, 64)
		}
		for _, v := range []float64{meanAPs, weekend, minFt, maxFt} {
			if math.IsNaN(v) {
				return
			}
		}
		loadAndRun(t, fleetDoc(minUsers, maxUsers, maxDevicesPerUser, num(meanAPs), maxAPs,
			num(weekend), num(minFt), num(maxFt), horizon), fleetKeys)
	})
}

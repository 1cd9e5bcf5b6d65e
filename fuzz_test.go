package powifi

import (
	"encoding/json"
	"reflect"
	"testing"
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

package surface

import (
	"math"
	"testing"

	"repro/internal/harvester"
)

// TestRegistrySharesBuilds pins that For returns one surface per
// distinct harvester configuration, across distinct device instances.
func TestRegistrySharesBuilds(t *testing.T) {
	s1 := For(harvester.NewBatteryFree())
	s2 := For(harvester.NewBatteryFree())
	if s1 != s2 {
		t.Error("two battery-free harvesters got different surfaces")
	}
	s3 := For(harvester.NewBatteryCharging())
	if s3 == s1 {
		t.Error("battery-free and battery-charging harvesters share a surface")
	}
}

// TestEnabledToggle pins the global escape hatch.
func TestEnabledToggle(t *testing.T) {
	if !Enabled() {
		t.Fatal("surface must be enabled by default")
	}
	SetEnabled(false)
	if Enabled() {
		t.Error("SetEnabled(false) did not take")
	}
	SetEnabled(true)
}

// TestOutOfDomainFallsBackToExact: a drive past the grid's upper bound
// must produce exactly the direct solver's result (the fallback calls
// it), never an extrapolation.
func TestOutOfDomainFallsBackToExact(t *testing.T) {
	h := harvester.NewBatteryFree()
	s := New(h, Options{AMinW: 1e-9, AMaxW: 1e-5})
	chans := []harvester.ChannelPower{{FreqHz: 2.437e9, PowerW: 1e-3}}
	occ := []float64{0.9}
	exact := h.BurstyOperating(chans, occ)
	got := s.BurstyOperating(chans, occ)
	if got != exact {
		t.Errorf("out-of-domain query did not match exact fallback:\n got %+v\nwant %+v", got, exact)
	}
	if gotBoot, wantBoot := s.CanBootBursty(chans, occ), h.CanBootBursty(chans, occ); gotBoot != wantBoot {
		t.Errorf("out-of-domain boot decision %v, exact %v", gotBoot, wantBoot)
	}
}

// TestOptionsDefaults pins Options zero-value handling and the ε
// default the issue specifies.
func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Epsilon != 1e-6 {
		t.Errorf("default epsilon = %g, want 1e-6", o.Epsilon)
	}
	if o.AMinW <= 0 || o.AMaxW <= o.AMinW || o.MaxNodes <= 0 || o.VBandV <= 0 {
		t.Errorf("defaults not filled: %+v", o)
	}
	custom := Options{Epsilon: 1e-3}.withDefaults()
	if custom.Epsilon != 1e-3 {
		t.Errorf("custom epsilon overridden: %+v", custom)
	}
}

// TestConfigurableEpsilon: a surface built with a loose ε still matches
// the exact solver within that ε (sanity that the bound tracks the
// option, not a constant).
func TestConfigurableEpsilon(t *testing.T) {
	h := harvester.NewBatteryFree()
	s := New(h, Options{Epsilon: 1e-3})
	if s.Epsilon() != 1e-3 {
		t.Fatalf("Epsilon() = %g", s.Epsilon())
	}
	chans := []harvester.ChannelPower{{FreqHz: 2.437e9, PowerW: 5e-5}}
	occ := []float64{0.8}
	exact := h.BurstyOperating(chans, occ).HarvestedW
	got := s.BurstyOperating(chans, occ).HarvestedW
	if err := math.Abs(got - exact); err > 1e-3*math.Max(math.Abs(exact), 1e-11) {
		t.Errorf("loose surface error %g exceeds its ε: got %g want %g", err, got, exact)
	}
}

// TestIdleAndDegenerateDrives pins the edge semantics shared with the
// exact solver: empty channel lists, mismatched lengths, zero occupancy.
func TestIdleAndDegenerateDrives(t *testing.T) {
	for _, mk := range []func() *harvester.Harvester{harvester.NewBatteryFree, harvester.NewBatteryCharging} {
		h := mk()
		s := For(h)
		cases := []struct {
			name  string
			chans []harvester.ChannelPower
			occ   []float64
		}{
			{"empty", nil, nil},
			{"mismatch", []harvester.ChannelPower{{FreqHz: 2.437e9, PowerW: 1e-5}}, []float64{0.5, 0.5}},
			{"silent", []harvester.ChannelPower{{FreqHz: 2.437e9, PowerW: 1e-5}}, []float64{0}},
			{"negative-occ", []harvester.ChannelPower{{FreqHz: 2.437e9, PowerW: 1e-5}}, []float64{-0.3}},
		}
		for _, tc := range cases {
			if got, want := s.BurstyOperating(tc.chans, tc.occ), h.BurstyOperating(tc.chans, tc.occ); got != want {
				t.Errorf("%v/%s: BurstyOperating %+v, exact %+v", h.Version, tc.name, got, want)
			}
			if got, want := s.CanBootBursty(tc.chans, tc.occ), h.CanBootBursty(tc.chans, tc.occ); got != want {
				t.Errorf("%v/%s: CanBootBursty %v, exact %v", h.Version, tc.name, got, want)
			}
		}
	}
}

// TestStatsCertified: the default build must certify every interval —
// at most a handful of width-floored kink intervals may exceed the
// per-curve midpoint tolerance, and even those by a small factor
// (absorbed by the safety factor between node tolerance and ε).
func TestStatsCertified(t *testing.T) {
	for _, mk := range []func() *harvester.Harvester{harvester.NewBatteryFree, harvester.NewBatteryCharging} {
		s := For(mk())
		st := s.Stats()
		if st.OpNodes < 100 {
			t.Errorf("%+v: implausibly small grid", st)
		}
		if st.Unresolved > 8 {
			t.Errorf("too many unresolved intervals: %+v", st)
		}
		if st.MaxMidpointErr > float64(safetyFactor)/2 {
			t.Errorf("worst midpoint error %.1f× tolerance eats the whole safety margin (%+v)", st.MaxMidpointErr, st)
		}
	}
}

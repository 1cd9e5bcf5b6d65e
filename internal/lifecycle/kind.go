// Package lifecycle is the stateful device-lifecycle engine: it
// threads storage state of charge across the logging bins the
// deployment runner (internal/deploy) produces, turning the repo's
// stateless per-bin metrics into the paper's time-domain results —
// battery recharge curves (§5.2, §8a), camera frames accumulating
// across charge/discharge cycles (§6.2), and sensor update intervals
// over 24-hour home traces (§7).
//
// A Device wraps one device archetype (battery-free temperature
// sensor, NiMH-recharging temperature sensor, duty-cycled camera, or a
// pure battery charger on the Jawbone/Li-Ion/NiMH models in
// internal/harvester) with a boot/brownout/operate state machine and a
// per-bin harvest-versus-consume energy ledger: harvested energy is
// banked through the archetype's RF chain (served from the shared
// operating-point surface), self-discharge and cold-boot thresholds
// are applied, and the configured duty-cycle policy spends the banked
// energy on sensor reads or camera frames. The engine emits
// time-domain metrics — time to first update, update-interval
// distribution, outage fraction, frames captured, state-of-charge
// trajectory, time to full charge — per home and, through
// internal/fleet's mixed device populations, at fleet scale.
//
// Everything is deterministic in the home's (config, options) alone:
// a Device's state is fully re-derived by Begin, so a pooled Device
// reused across homes reproduces a fresh one bit for bit (pinned by
// the parity suite).
package lifecycle

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Kind selects a device archetype.
type Kind int

// The six archetypes the engine models. The first three are the
// paper's sensing prototypes; the last three are pure battery chargers
// on the storage models of internal/harvester.
const (
	// TempSensor is the §5.1 battery-free temperature sensor: Seiko
	// charge-pump chain, a 2.6 µF storage capacitor, cold start from
	// the 300 mV threshold, energy-neutral reads.
	TempSensor Kind = iota
	// RechargingTemp is the §5.1 battery-recharging temperature sensor:
	// bq25570 chain over a 2xAAA NiMH pack, duty-cycled reads.
	RechargingTemp
	// Camera is the §5.2 battery-recharging camera: bq25570 chain over
	// the Li-Ion coin cell, 10.4 mJ frames captured as banked energy
	// allows.
	Camera
	// Jawbone is the §8(a) USB-charger demonstration: a Jawbone UP24
	// battery recharged by the high-power charger chain 6 cm from the
	// router.
	Jawbone
	// LiIon recharges the MS412FE coin cell through the bq25570 chain
	// at the home's sensor placement.
	LiIon
	// NiMH recharges the 2xAAA pack through the bq25570 chain at the
	// home's sensor placement.
	NiMH

	// NumKinds counts the archetypes; Mix is indexed by Kind.
	NumKinds int = iota
)

var kindNames = [NumKinds]string{"temp", "rtemp", "camera", "jawbone", "liion", "nimh"}

// String returns the archetype's CLI name.
func (k Kind) String() string {
	if k < 0 || int(k) >= NumKinds {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// ParseKind resolves a CLI name to its archetype.
func ParseKind(s string) (Kind, error) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("lifecycle: unknown device archetype %q (want one of %s)",
		s, strings.Join(kindNames[:], ", "))
}

// Kinds returns the archetypes in canonical order.
func Kinds() []Kind {
	ks := make([]Kind, NumKinds)
	for i := range ks {
		ks[i] = Kind(i)
	}
	return ks
}

// Charger reports whether the archetype is a pure battery charger (no
// sensing duty cycle; its headline metric is time to full charge).
func (k Kind) Charger() bool { return k == Jawbone || k == LiIon || k == NiMH }

// BatteryBacked reports whether the archetype carries a battery whose
// state of charge the ledger threads across bins.
func (k Kind) BatteryBacked() bool { return k != TempSensor }

// Mix holds per-archetype population shares, indexed by Kind. Shares
// are relative weights (Pick normalizes by the total), so
// "temp=1,camera=1" and "temp=0.5,camera=0.5" describe the same
// population. The zero Mix disables the lifecycle engine. A fixed
// array keeps the type comparable, which the fleet configuration's
// zero-value detection relies on.
type Mix [NumKinds]float64

// ParseMix parses the CLI form "temp=0.5,camera=0.3,jawbone=0.2".
func ParseMix(s string) (Mix, error) {
	var m Mix
	if strings.TrimSpace(s) == "" {
		return m, fmt.Errorf("lifecycle: empty device mix")
	}
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return Mix{}, fmt.Errorf("lifecycle: device share %q is not name=weight", part)
		}
		k, err := ParseKind(strings.TrimSpace(name))
		if err != nil {
			return Mix{}, err
		}
		w, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return Mix{}, fmt.Errorf("lifecycle: device share %q: %v", part, err)
		}
		if w < 0 || w > 1e12 || w != w {
			return Mix{}, fmt.Errorf("lifecycle: device share %q outside [0, 1e12]", part)
		}
		m[k] += w
	}
	if !m.Enabled() {
		return Mix{}, fmt.Errorf("lifecycle: device mix %q has no positive share", s)
	}
	// Duplicate names sum, so the combined weights need re-validating
	// against the same bound each part was checked against.
	if err := m.Validate(); err != nil {
		return Mix{}, err
	}
	return m, nil
}

// Enabled reports whether any archetype carries a positive share — the
// switch between the classic fleet aggregates and the lifecycle engine.
func (m Mix) Enabled() bool { return m.Total() > 0 }

// Total returns the sum of shares.
func (m Mix) Total() float64 {
	t := 0.0
	for _, w := range m {
		t += w
	}
	return t
}

// Validate rejects mixes no draw can use.
func (m Mix) Validate() error {
	for k, w := range m {
		if w < 0 || w != w || w > 1e12 {
			return fmt.Errorf("lifecycle: share %s=%v outside [0, 1e12]", Kind(k), w)
		}
	}
	return nil
}

// Pick maps a uniform u in [0, 1) to an archetype by cumulative share
// in canonical Kind order. It panics on a disabled mix.
func (m Mix) Pick(u float64) Kind {
	total := m.Total()
	if total <= 0 {
		panic("lifecycle: Pick on a disabled device mix")
	}
	acc := 0.0
	last := TempSensor
	for k, w := range m {
		if w <= 0 {
			continue
		}
		acc += w
		last = Kind(k)
		if u*total < acc {
			return last
		}
	}
	return last // u at the top edge lands on the final positive share
}

// String renders the mix in the CLI form, canonical order, positive
// shares only.
func (m Mix) String() string {
	var b strings.Builder
	for k, w := range m {
		if w <= 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%s", Kind(k), strconv.FormatFloat(w, 'g', -1, 64))
	}
	if b.Len() == 0 {
		return "none"
	}
	return b.String()
}

// MarshalJSON renders the mix as a {"name": weight} object with
// positive shares only, so the zero mix serializes as {}.
func (m Mix) MarshalJSON() ([]byte, error) {
	obj := make(map[string]float64)
	for k, w := range m {
		if w > 0 {
			obj[Kind(k).String()] = w
		}
	}
	// Sorted keys for byte-stable output (encoding/json sorts map keys
	// itself, but being explicit keeps the contract visible).
	keys := make([]string, 0, len(obj))
	for k := range obj {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%q:%s", k, strconv.FormatFloat(obj[k], 'g', -1, 64))
	}
	b.WriteByte('}')
	return []byte(b.String()), nil
}

// UnmarshalJSON parses the {"name": weight} object form.
func (m *Mix) UnmarshalJSON(data []byte) error {
	var obj map[string]float64
	if err := json.Unmarshal(data, &obj); err != nil {
		return err
	}
	var out Mix
	//powifi:mapiter-ok each kind name writes its own Mix slot; iteration order cannot matter
	for name, w := range obj {
		k, err := ParseKind(name)
		if err != nil {
			return err
		}
		out[k] = w
	}
	if err := out.Validate(); err != nil {
		return err
	}
	*m = out
	return nil
}

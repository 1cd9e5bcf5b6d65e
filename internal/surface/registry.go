package surface

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/harvester"
)

// enabled is the process-wide escape hatch: when false, callers that
// consult Enabled() (core.TempSensorDevice.Evaluate) take the exact
// solver instead of the surface. The CLIs expose it as -exact.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// Enabled reports whether the surface fast path is active.
func Enabled() bool { return enabled.Load() }

// SetEnabled toggles the surface fast path process-wide. It exists for
// the CLIs' -exact escape hatch and for A/B parity tests; per-run control
// should prefer the Exact fields on deploy.Options and fleet.Config.
func SetEnabled(v bool) { enabled.Store(v) }

// registry caches one surface per distinct harvester configuration.
// Devices are constructed afresh per simulated home, so the cache is
// keyed by the harvester's physical fingerprint rather than by pointer
// identity; surfaces are deterministic in the fingerprint, so sharing
// one across goroutines cannot perturb results.
var registry sync.Map // fingerprint string -> *registryEntry

type registryEntry struct {
	once sync.Once
	s    *Surface
}

// Fingerprint canonically describes the harvester parameters the surface
// depends on. Two harvesters with equal fingerprints have identical
// exact solvers, hence identical surfaces.
func Fingerprint(h *harvester.Harvester) string {
	seiko, bq := "-", "-"
	if h.Seiko != nil {
		seiko = fmt.Sprintf("%+v", *h.Seiko)
	}
	if h.BQ != nil {
		bq = fmt.Sprintf("%+v", *h.BQ)
	}
	return fmt.Sprintf("v%d|%T%+v|%+v|%s|%s", h.Version, h.Match, h.Match, h.Rect, seiko, bq)
}

// For returns the process-wide shared surface for h at DefaultOptions.
// On first use it decodes the surface from the embedded table when the
// table holds h's fingerprint (the production harvesters), and builds it
// with New otherwise. Either runs at most once per distinct harvester
// configuration regardless of how many goroutines race here.
func For(h *harvester.Harvester) *Surface {
	key := Fingerprint(h)
	v, _ := registry.LoadOrStore(key, &registryEntry{})
	e := v.(*registryEntry)
	e.once.Do(func() { e.s = load(h, key, embeddedTable) })
	return e.s
}

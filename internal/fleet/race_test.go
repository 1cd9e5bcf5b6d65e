//go:build race

package fleet

// The race detector's instrumentation shifts allocation counts, and it
// slows the budget test's shapes about sevenfold, so allocation budgets
// are not checked under it.
func init() { raceEnabled = true }

//go:build race

package trace

// The race detector's sync.Pool drops a random share of the values put
// back (encoding/json keeps its encoder state in one), so allocation
// budgets do not hold under it.
func init() { raceEnabled = true }

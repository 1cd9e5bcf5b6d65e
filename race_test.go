//go:build race

package powifi_test

// The race detector's sync.Pool drops a random share of the values put
// back, so allocation budgets do not hold under it.
func init() { raceEnabled = true }

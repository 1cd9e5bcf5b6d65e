package fleet

import (
	"fmt"

	"repro/internal/trace"
)

// FailurePolicy decides what the run does when a home's simulation
// panics. The zero value is fail-fast: the first failed home aborts the
// run with a structured *HomeError (wrapped), after checkpointing the
// committed prefix so a resume re-attempts exactly that home.
//
// Failure handling preserves the fleet's determinism contract: a panic
// is attributed to its home index, retries re-derive the home from
// (seed, index) on a fresh sampler, and failed homes commit in the same
// home-index order as successes — so which home fails first, which
// homes are quarantined, and every succeeded-home aggregate are all
// bit-identical at any worker count.
type FailurePolicy struct {
	// Retry is the number of re-attempts per home after its first
	// failure. Each retry runs on a freshly constructed sampler — the
	// panicking attempt may have left the pooled context in an
	// inconsistent state, so it is discarded, never returned to the
	// pool.
	Retry int `json:"retry,omitempty"`
	// Skip quarantines a home whose attempts are exhausted instead of
	// aborting: the run continues, the home contributes nothing to any
	// aggregate, and its structured error is reported in Result.Errors
	// (workers-invariant, home-index order).
	Skip bool `json:"skip,omitempty"`
}

// failFast reports whether the policy aborts on the first exhausted
// home (the zero-value default).
func (p FailurePolicy) failFast() bool { return !p.Skip }

// HomeError describes one home whose simulation panicked. It is
// workers-invariant: Index, Label, Attempts and Msg depend only on the
// home and the armed faults, never on scheduling. Stack carries the
// recovering goroutine's stack for operator forensics; it is excluded
// from serialization and comparisons because goroutine IDs and
// addresses vary run to run.
type HomeError struct {
	// Index is the failed home's index; Label is its RNG stream label
	// ("fleet/home/<index>"), the stable cross-run identity.
	Index int    `json:"index"`
	Label string `json:"label"`
	// Attempts counts simulation attempts made (1 + retries).
	Attempts int `json:"attempts"`
	// Msg renders the recovered panic value.
	Msg string `json:"msg"`
	// Stack is the panicking attempt's stack trace (last attempt).
	Stack string `json:"-"`
	// Trace is the last attempt's flight-recorder dump when the run
	// traced (Hooks.Trace): the home's final structured events, for
	// forensics on what led up to the failure. Its contents derive only
	// from the simulation and the armed faults, so it serializes and
	// compares deterministically like the rest of the error.
	Trace *trace.Dump `json:"trace,omitempty"`
}

func (e *HomeError) Error() string {
	return fmt.Sprintf("fleet: home %d (%s) failed after %d attempt(s): %s",
		e.Index, e.Label, e.Attempts, e.Msg)
}

// Partial-result reasons (Result.PartialReason / Summary.PartialReason).
const (
	// PartialDeadline: the run's Config.Deadline expired; the committed
	// home prefix was kept and a final checkpoint written.
	PartialDeadline = "deadline"
	// PartialFailureBudget: quarantined homes exceeded
	// Config.MaxFailedHomes.
	PartialFailureBudget = "failure_budget"
)

// partialStop is the internal sentinel the reducer raises when a
// degradation budget trips: the run ends with the committed prefix as a
// partial Result, not an error.
type partialStop struct {
	reason    string
	committed int
}

func (p *partialStop) Error() string {
	return fmt.Sprintf("fleet: partial stop (%s) at %d homes", p.reason, p.committed)
}

// Package experiments contains one runner per table and figure of the
// paper's evaluation (§2, §4, §5, §6, §8). Each runner builds its workload
// from the simulator substrates and returns a structured result that
// prints the same rows/series the paper reports. The quick
// configuration's tables are pinned byte for byte in
// testdata/golden/bench_*.golden by the root package's golden suite.
package experiments

import (
	"fmt"
	"io"
	"sort"
)

// Config selects how one experiment run is configured.
type Config struct {
	// Quick selects a reduced configuration (fewer repetitions, shorter
	// runs) suitable for tests and default benchmarks; false reproduces
	// the paper's scale.
	Quick bool
	// Exact puts every device the run builds on the direct
	// operating-point solver instead of the error-bounded interpolation
	// surface (internal/surface). It holds for this run only. fig14
	// runs on the surface whatever Exact says: its table prints only
	// occupancy, which does not depend on the solver.
	Exact bool
}

// Table is an experiment's structured result, printable as the rows
// the paper reports.
type Table interface {
	WriteTable(w io.Writer)
}

// tables prints several results in order, for experiments that report
// more than one.
type tables []Table

func (ts tables) WriteTable(w io.Writer) {
	for _, t := range ts {
		t.WriteTable(w)
	}
}

// Runner executes one experiment under cfg.
type Runner func(cfg Config) Table

type entry struct {
	title, desc string
	run         Runner
}

// registry maps experiment ids (fig1, fig5, ..., table1) to runners.
var registry = map[string]entry{}

// register adds an experiment to the registry (called from init funcs):
// desc is the one-line summary for the CLI, title the table banner.
func register(id, desc, title string, r Runner) {
	registry[id] = entry{title: title, desc: desc, run: r}
}

// IDs returns the registered experiment ids in sorted order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Describe returns the one-line description of an experiment.
func Describe(id string) string { return registry[id].desc }

// Run executes the experiment with the given id under cfg, writing its
// banner and table to w. It returns false for unknown ids.
func Run(id string, w io.Writer, cfg Config) bool {
	e, exists := registry[id]
	if !exists {
		return false
	}
	fmt.Fprintf(w, "== %s: %s ==\n", id, e.title)
	e.run(cfg).WriteTable(w)
	return true
}

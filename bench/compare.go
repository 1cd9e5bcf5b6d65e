package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
)

// minPairs is the fewest parent/change pairs a verdict rests on.
const minPairs = 10

// compareMain pairs the runs of two results files — the parent's and a
// change's, run alternately with the same settings — and prints one
// verdict per workload, pass and metric: improved, unchanged, regressed
// or unresolved. Each workload first gets a failed_frac verdict over all
// of its runs. It returns 1 if anything regressed.
func compareMain(aPath, bPath string, stdout, stderr io.Writer) int {
	a, err := loadResults(aPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	b, err := loadResults(bPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		fa, fb := tallyFailures(a, w.name), tallyFailures(b, w.name)
		if fa.runs > 0 || fb.runs > 0 {
			v := judgeFailures(fa, fb)
			if v == "regressed" {
				code = 1
			}
			fmt.Fprintf(stdout, "%s failed_frac %s parent=%s change=%s incorrect_runs=%d/%d\n", w.name, v,
				strconv.FormatFloat(fa.frac(), 'g', 6, 64), strconv.FormatFloat(fb.frac(), 'g', 6, 64), fb.incorrect, fb.runs)
		}
		for _, traced := range []bool{false, true} {
			ra, rb := passRuns(a, w.name, traced), passRuns(b, w.name, traced)
			n := min(len(ra), len(rb))
			if n == 0 {
				continue
			}
			ra, rb = ra[:n], rb[:n]
			alt := alternated(ra, rb)
			if !alt {
				fmt.Fprintf(stderr, "bench: %s: the pairs do not alternate which side ran first; every verdict is unresolved\n", w.name)
			}
			metrics := endToEnd
			if traced {
				metrics = perLayer
			}
			for _, m := range metrics {
				var xs, ys []float64
				for i := range ra {
					x, okA := ra[i].Metrics[m.name]
					y, okB := rb[i].Metrics[m.name]
					if okA && okB {
						xs = append(xs, x.Value)
						ys = append(ys, y.Value)
					}
				}
				if len(xs) == 0 {
					continue
				}
				wins, _ := tally(m, xs, ys)
				v := judge(m, xs, ys, alt)
				if v == "regressed" {
					code = 1
				}
				fmt.Fprintf(stdout, "%s %s %s parent=%s change=%s wins=%d/%d\n", w.name, m.name, v,
					strconv.FormatFloat(median(xs), 'g', 6, 64), strconv.FormatFloat(median(ys), 'g', 6, 64), wins, len(xs))
			}
		}
	}
	return code
}

// failures totals a workload's runs, both passes: how many failed an
// output check, and the homes attempted and failed.
type failures struct {
	runs, incorrect, attempted, failed int
}

func (f failures) frac() float64 {
	if f.attempted == 0 {
		return 0
	}
	return float64(f.failed) / float64(f.attempted)
}

func tallyFailures(rf resultsFile, workload string) failures {
	var f failures
	for _, r := range rf.Runs {
		if r.Workload != workload {
			continue
		}
		f.runs++
		if !r.Correct {
			f.incorrect++
		}
		f.attempted += r.Attempted
		f.failed += r.Failed
	}
	return f
}

// judgeFailures holds failures to a bound of +0: a change with any run
// that failed an output check, or a larger share of failed homes than
// the parent, regressed. A workload that only one side ran is
// unresolved.
func judgeFailures(a, b failures) string {
	switch {
	case b.incorrect > 0 || b.frac() > a.frac():
		return "regressed"
	case a.runs == 0 || b.runs == 0:
		return "unresolved"
	case b.frac() < a.frac() || b.incorrect < a.incorrect:
		return "improved"
	}
	return "unchanged"
}

func loadResults(path string) (resultsFile, error) {
	var rf resultsFile
	b, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(b, &rf); err != nil {
		return rf, fmt.Errorf("reading %s: %w", path, err)
	}
	return rf, nil
}

// passRuns returns a workload's correct runs of one pass, in order.
func passRuns(rf resultsFile, workload string, traced bool) []runRecord {
	var out []runRecord
	for _, r := range rf.Runs {
		if r.Workload == workload && r.Traced == traced && r.Correct {
			out = append(out, r)
		}
	}
	return out
}

// alternated reports whether the side that ran first flips from each
// pair to the next, so neither side always runs on a warmer machine.
func alternated(a, b []runRecord) bool {
	for i := 1; i < len(a); i++ {
		if (a[i].StartedNS < b[i].StartedNS) == (a[i-1].StartedNS < b[i-1].StartedNS) {
			return false
		}
	}
	return true
}

// better reports whether x reads better than y for m.
func better(m metric, x, y float64) bool {
	if m.lowerBetter {
		return x < y
	}
	return x > y
}

// tally counts the pairs the change (b) wins and loses; ties count for
// neither.
func tally(m metric, a, b []float64) (wins, losses int) {
	for i := range a {
		switch {
		case better(m, b[i], a[i]):
			wins++
		case better(m, a[i], b[i]):
			losses++
		}
	}
	return wins, losses
}

// judge decides a verdict from paired runs of a parent (a) and a
// change (b). A gain needs at least ten alternated pairs, a
// win in nine tenths of them, and medians further apart than the
// parent's interquartile range. An end-to-end metric regresses when the
// change's median is worse by more than its bound, and is unresolved
// when the parent's own spread is wider than the bound, unless every
// change run reads better than every parent run. A per-layer metric,
// which has no bound, regresses by the mirror of the gain rule.
func judge(m metric, a, b []float64, alternated bool) string {
	n := len(a)
	if n < minPairs || !alternated {
		return "unresolved"
	}
	wins, losses := tally(m, a, b)
	ma, mb := median(a), median(b)
	q1, _, q3 := quartiles(a)
	apart := math.Abs(mb-ma) > q3-q1
	switch {
	case 10*wins >= 9*n && apart && better(m, mb, ma):
		return "improved"
	case m.bound > 0:
		switch {
		case better(m, ma, mb) && math.Abs(mb-ma) > m.bound*math.Abs(ma):
			return "regressed"
		case spread(a) > m.bound && !separated(m, a, b):
			return "unresolved"
		}
		return "unchanged"
	case 10*losses >= 9*n && apart:
		return "regressed"
	case apart:
		return "unresolved"
	}
	return "unchanged"
}

// separated reports whether every change run reads better than every
// parent run.
func separated(m metric, a, b []float64) bool {
	for _, y := range b {
		for _, x := range a {
			if !better(m, y, x) {
				return false
			}
		}
	}
	return true
}

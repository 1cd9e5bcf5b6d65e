package fleet

// The chaos matrix: every injected fault must leave the run either
// failing fast with a structured error or completing/resuming with
// succeeded-home aggregates bit-identical to a fault-free run, at any
// worker count. This suite is the certification artifact the CI chaos
// job executes.

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/telemetry"
)

// mustFaults arms a fault spec with the config's seed, failing the
// test on a bad spec.
func mustFaults(t *testing.T, cfg Config, spec string) *faultinject.Set {
	t.Helper()
	fi, err := faultinject.Parse(cfg.Seed, spec)
	if err != nil {
		t.Fatal(err)
	}
	return fi
}

// populations is the chaos and checkpoint suites' population input:
// every contract must hold for the classic stateless aggregates and for
// a device-lifecycle population, whose ledgers commit with their homes.
var populations = []struct {
	name string
	cfg  func(homes, workers int) Config
}{
	{"classic", testConfig},
	{"lifecycle", lifeTestConfig},
}

// faultFreeSummary runs the configuration clean and returns its
// serialized summary — the byte-identity baseline.
func faultFreeSummary(t *testing.T, cfg Config) []byte {
	t.Helper()
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return summaryJSON(t, res)
}

// TestChaosFailFastStructuredError pins the default policy: the first
// failed home (in home-index order, so workers-invariant) aborts the
// run with a structured *HomeError, and — with checkpointing on — the
// prefix below the failed home is durable, so a resume with the fault
// disarmed re-attempts it and completes bit-identically.
func TestChaosFailFastStructuredError(t *testing.T) {
	cfg := testConfig(12, 1)
	want := faultFreeSummary(t, cfg)
	for _, workers := range []int{1, 8} {
		cfg := testConfig(12, workers)
		ckPath := filepath.Join(t.TempDir(), "run.ckpt")
		ck := &Checkpoint{Path: ckPath, Every: 4}
		res, err := RunWith(context.Background(), cfg, Hooks{
			Checkpoint: ck,
			Faults:     mustFaults(t, cfg, "home.panic@5"),
		})
		if res != nil {
			t.Fatalf("workers=%d: failed run returned a Result", workers)
		}
		var he *HomeError
		if !errors.As(err, &he) {
			t.Fatalf("workers=%d: error %v is not a *HomeError", workers, err)
		}
		if he.Index != 5 || he.Label != "fleet/home/5" || he.Attempts != 1 {
			t.Fatalf("workers=%d: HomeError = %+v, want index 5, label fleet/home/5, 1 attempt", workers, he)
		}
		if he.Msg != "faultinject: injected panic (home.panic key 5)" {
			t.Fatalf("workers=%d: panic message %q is not deterministic", workers, he.Msg)
		}
		// The fail-fast checkpoint excludes the failed home: the resume
		// re-attempts it (fault disarmed) and must finish bit-identically.
		resumed, err := RunWith(context.Background(), cfg, Hooks{Checkpoint: ck})
		if err != nil {
			t.Fatalf("workers=%d: resume after fail-fast: %v", workers, err)
		}
		if got := summaryJSON(t, resumed); !bytes.Equal(got, want) {
			t.Errorf("workers=%d: resumed summary differs from fault-free run", workers)
		}
	}
}

// TestChaosRetryBitIdentical pins the retry policy: a home that panics
// once and succeeds on its second attempt (the injector's default
// one-fire budget) leaves the run's output byte-identical to a
// fault-free run at any worker count, with the retry visible only in
// telemetry.
func TestChaosRetryBitIdentical(t *testing.T) {
	for _, pop := range populations {
		want := faultFreeSummary(t, pop.cfg(12, 1))
		for _, workers := range []int{1, 8} {
			cfg := pop.cfg(12, workers)
			cfg.Policy = FailurePolicy{Retry: 2}
			tel := telemetry.NewRun()
			res, err := RunWith(context.Background(), cfg, Hooks{
				Telemetry: tel,
				Faults:    mustFaults(t, cfg, "home.panic@5"),
			})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", pop.name, workers, err)
			}
			if got := summaryJSON(t, res); !bytes.Equal(got, want) {
				t.Errorf("%s workers=%d: retried run's summary differs from fault-free run", pop.name, workers)
			}
			snap := tel.Snapshot()
			if snap.Counters[telemetry.CounterHomeRetries] != 1 {
				t.Errorf("%s workers=%d: retries counter = %d, want 1",
					pop.name, workers, snap.Counters[telemetry.CounterHomeRetries])
			}
			if snap.Counters[telemetry.CounterFaultsInjected] != 1 {
				t.Errorf("%s workers=%d: faults counter = %d, want 1",
					pop.name, workers, snap.Counters[telemetry.CounterFaultsInjected])
			}
		}
	}
}

// TestChaosRetryExhaustionFailsFast pins the interaction: a fault
// armed past the retry budget (times=-1) exhausts every attempt and
// the default policy aborts with the attempt count on the error.
func TestChaosRetryExhaustionFailsFast(t *testing.T) {
	cfg := testConfig(12, 4)
	cfg.Policy = FailurePolicy{Retry: 2}
	_, err := RunWith(context.Background(), cfg, Hooks{
		Faults: mustFaults(t, cfg, "home.panic@5,times=-1"),
	})
	var he *HomeError
	if !errors.As(err, &he) {
		t.Fatalf("error %v is not a *HomeError", err)
	}
	if he.Attempts != 3 {
		t.Fatalf("HomeError.Attempts = %d, want 3 (1 + 2 retries)", he.Attempts)
	}
}

// TestChaosSkipQuarantine pins the skip policy: permanently failing
// homes are quarantined into Result.Errors (home-index order,
// workers-invariant), contribute to no aggregate, and every other
// home's record matches the fault-free run exactly.
func TestChaosSkipQuarantine(t *testing.T) {
	spec := "home.panic@3,times=-1;home.panic@7,times=-1"
	for _, pop := range populations {
		collect := func(workers int, faulty bool) (*Result, map[int]HomeRecord, []byte) {
			cfg := pop.cfg(12, workers)
			recs := make(map[int]HomeRecord)
			h := Hooks{Home: func(r HomeRecord) bool { recs[r.Index] = r; return true }}
			if faulty {
				cfg.Policy = FailurePolicy{Skip: true}
				h.Faults = mustFaults(t, cfg, spec)
			}
			res, err := RunWith(context.Background(), cfg, h)
			if err != nil {
				t.Fatalf("%s workers=%d faulty=%v: %v", pop.name, workers, faulty, err)
			}
			return res, recs, summaryJSON(t, res)
		}

		_, cleanRecs, _ := collect(1, false)
		serial, serialRecs, serialSum := collect(1, true)
		_, parallelRecs, parallelSum := collect(8, true)

		if !bytes.Equal(serialSum, parallelSum) {
			t.Errorf("%s: quarantined run's summary differs across worker counts", pop.name)
		}
		if len(serial.Errors) != 2 || serial.Errors[0].Index != 3 || serial.Errors[1].Index != 7 {
			t.Fatalf("%s: Errors = %+v, want homes 3 and 7 in index order", pop.name, serial.Errors)
		}
		if serial.Partial {
			t.Errorf("%s: quarantine alone must not mark the run partial", pop.name)
		}
		sum := serial.Summarize()
		if sum.FailedHomes != 2 || len(sum.Errors) != 2 {
			t.Errorf("%s: summary failed_homes = %d (errors %d), want 2", pop.name, sum.FailedHomes, len(sum.Errors))
		}
		if n := serial.CumOcc.N(); n != 10 {
			t.Errorf("%s: per-home aggregate has %d samples, want 10 (12 homes - 2 quarantined)", pop.name, n)
		}
		for idx, want := range cleanRecs {
			if idx == 3 || idx == 7 {
				continue
			}
			if got, ok := serialRecs[idx]; !ok || !reflect.DeepEqual(got, want) {
				t.Errorf("%s: succeeded home %d's record differs from the fault-free run", pop.name, idx)
			}
		}
		for _, idx := range []int{3, 7} {
			if _, ok := serialRecs[idx]; ok {
				t.Errorf("%s: quarantined home %d reached the Home hook", pop.name, idx)
			}
		}
		for idx := range serialRecs {
			if got, ok := parallelRecs[idx]; !ok || !reflect.DeepEqual(got, serialRecs[idx]) {
				t.Errorf("%s: home %d's record differs across worker counts", pop.name, idx)
			}
		}
	}
}

// TestChaosFailureBudgetPartial pins graceful degradation on the
// failure budget: one quarantine past MaxFailedHomes ends the run with
// a partial Result covering the committed prefix — identically at any
// worker count.
func TestChaosFailureBudgetPartial(t *testing.T) {
	spec := "home.panic@1,times=-1;home.panic@3,times=-1;home.panic@5,times=-1"
	var first []byte
	for _, workers := range []int{1, 8} {
		cfg := testConfig(12, workers)
		cfg.Policy = FailurePolicy{Skip: true}
		cfg.MaxFailedHomes = 2
		res, err := RunWith(context.Background(), cfg, Hooks{
			Faults: mustFaults(t, cfg, spec),
		})
		if err != nil {
			t.Fatalf("workers=%d: budget stop returned error %v, want partial result", workers, err)
		}
		if !res.Partial || res.PartialReason != PartialFailureBudget {
			t.Fatalf("workers=%d: partial=%v reason=%q, want partial failure_budget",
				workers, res.Partial, res.PartialReason)
		}
		if res.CommittedHomes != 6 {
			t.Errorf("workers=%d: committed %d homes, want 6 (prefix through the tripping home 5)",
				workers, res.CommittedHomes)
		}
		if len(res.Errors) != 3 {
			t.Errorf("workers=%d: %d errors, want 3", workers, len(res.Errors))
		}
		got := summaryJSON(t, res)
		if first == nil {
			first = got
		} else if !bytes.Equal(first, got) {
			t.Error("partial summary differs across worker counts")
		}
	}
}

// TestChaosDeadlinePartialThenResume pins graceful degradation on the
// wall-clock budget: an expired deadline yields a partial Result (nil
// error) plus a final checkpoint, and resuming the checkpoint without
// the budget completes bit-identically to a fault-free run. The armed
// slow-home faults are what make the deadline bite deterministically
// enough to leave a strict prefix: each home stalls 100 ms against a
// 150 ms budget, so even eight workers commit at most one round of
// homes.
func TestChaosDeadlinePartialThenResume(t *testing.T) {
	for _, pop := range populations {
		want := faultFreeSummary(t, pop.cfg(12, 1))
		for _, workers := range []int{1, 2, 8} {
			cfg := pop.cfg(12, workers)
			run := cfg
			run.Deadline = 150 * time.Millisecond
			ck := &Checkpoint{Path: filepath.Join(t.TempDir(), "run.ckpt"), Every: 1}
			res, err := RunWith(context.Background(), run, Hooks{
				Checkpoint: ck,
				Faults:     mustFaults(t, run, "home.slow@every=1,delay=100ms,times=-1"),
			})
			if err != nil {
				t.Fatalf("%s workers=%d: deadline run returned error %v, want partial result", pop.name, workers, err)
			}
			if !res.Partial || res.PartialReason != PartialDeadline {
				t.Fatalf("%s workers=%d: partial=%v reason=%q, want partial deadline",
					pop.name, workers, res.Partial, res.PartialReason)
			}
			if res.CommittedHomes >= cfg.Homes {
				t.Fatalf("%s workers=%d: deadline run committed all %d homes; the budget never bit",
					pop.name, workers, res.CommittedHomes)
			}
			// The caller's own cancellation must still be an error, not a
			// partial: certify the two are distinguishable.
			pre, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := RunWith(pre, run, Hooks{}); !errors.Is(err, context.Canceled) {
				t.Fatalf("%s workers=%d: cancelled deadline run returned %v, want context.Canceled",
					pop.name, workers, err)
			}
			// Resume the committed prefix without the budget or faults.
			resumed, err := RunWith(context.Background(), cfg, Hooks{Checkpoint: ck})
			if err != nil {
				t.Fatalf("%s workers=%d: resuming partial checkpoint: %v", pop.name, workers, err)
			}
			if got := summaryJSON(t, resumed); !bytes.Equal(got, want) {
				t.Errorf("%s workers=%d: resumed partial run's summary differs from fault-free run", pop.name, workers)
			}
		}
	}
}

// TestChaosDeadlineAfterLastCommitIsComplete pins the complete-run
// boundary of the deadline budget: a deadline that expires after the
// last home committed — here while the Home hook holds the final
// home — leaves a complete run, not a partial one, at any worker
// count: no partial mark, no kept checkpoint, output identical to a
// run without the budget.
func TestChaosDeadlineAfterLastCommitIsComplete(t *testing.T) {
	want := faultFreeSummary(t, testConfig(6, 1))
	for _, workers := range []int{1, 2} {
		cfg := testConfig(6, workers)
		cfg.Deadline = 300 * time.Millisecond
		ck := &Checkpoint{Path: filepath.Join(t.TempDir(), "run.ckpt")}
		res, err := RunWith(context.Background(), cfg, Hooks{
			Checkpoint: ck,
			Home: func(r HomeRecord) bool {
				if r.Index == 5 {
					time.Sleep(400 * time.Millisecond)
				}
				return true
			},
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Partial {
			t.Fatalf("workers=%d: complete run marked partial (reason %q, committed %d)",
				workers, res.PartialReason, res.CommittedHomes)
		}
		if _, err := os.Stat(ck.Path); !os.IsNotExist(err) {
			t.Errorf("workers=%d: complete run kept its checkpoint (stat: %v)", workers, err)
		}
		if got := summaryJSON(t, res); !bytes.Equal(got, want) {
			t.Errorf("workers=%d: summary differs from the run without a deadline", workers)
		}
	}
}

// stopAfter returns hooks that stop the run via the Home hook once the
// given home index commits.
func stopAfter(idx int, h Hooks) Hooks {
	h.Home = func(r HomeRecord) bool { return r.Index != idx }
	return h
}

// TestChaosCorruptLatestFallsBackToPrev is the acceptance criterion's
// durability leg: a bit-rotted latest checkpoint generation is caught
// by the envelope checksum and the resume falls back to ".prev",
// completing bit-identically.
func TestChaosCorruptLatestFallsBackToPrev(t *testing.T) {
	for _, spec := range []string{"checkpoint.corrupt@2", "checkpoint.short-write@2"} {
		cfg := testConfig(12, 2)
		want := faultFreeSummary(t, cfg)
		ck := &Checkpoint{Path: filepath.Join(t.TempDir(), "run.ckpt"), Every: 2}
		// Writes land at committed 2 (gen 0), 4 (gen 1), then the hook
		// stop writes gen 2 at committed 6 — the faulted generation.
		_, err := RunWith(context.Background(), cfg, stopAfter(5, Hooks{
			Checkpoint: ck,
			Faults:     mustFaults(t, cfg, spec),
		}))
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("%s: stop run returned %v, want ErrStopped", spec, err)
		}
		if _, err := os.Stat(ck.prevPath()); err != nil {
			t.Fatalf("%s: no .prev generation after rotation: %v", spec, err)
		}
		tel := telemetry.NewRun()
		resumed, err := RunWith(context.Background(), cfg, Hooks{Checkpoint: ck, Telemetry: tel})
		if err != nil {
			t.Fatalf("%s: resume: %v", spec, err)
		}
		if got := summaryJSON(t, resumed); !bytes.Equal(got, want) {
			t.Errorf("%s: resumed summary differs from fault-free run", spec)
		}
		if n := tel.Snapshot().Counters[telemetry.CounterCheckpointFallbacks]; n != 1 {
			t.Errorf("%s: fallback counter = %d, want 1 (resume must have used .prev)", spec, n)
		}
	}
}

// TestChaosRenameFailCleansTmp is the tmp-leak satellite: a failed
// checkpoint rename aborts the run with an error, leaves no ".tmp"
// litter, and keeps a good generation on disk for the resume.
func TestChaosRenameFailCleansTmp(t *testing.T) {
	cfg := testConfig(12, 2)
	want := faultFreeSummary(t, cfg)
	ck := &Checkpoint{Path: filepath.Join(t.TempDir(), "run.ckpt"), Every: 2}
	_, err := RunWith(context.Background(), cfg, Hooks{
		Checkpoint: ck,
		Faults:     mustFaults(t, cfg, "checkpoint.rename-fail@1"),
	})
	if err == nil || !strings.Contains(err.Error(), "injected rename failure") {
		t.Fatalf("rename-fail run returned %v, want the injected rename failure", err)
	}
	if _, serr := os.Stat(ck.Path + ".tmp"); !os.IsNotExist(serr) {
		t.Fatalf("failed rename leaked %s.tmp (stat: %v)", ck.Path, serr)
	}
	// Gen 0 rotated to .prev before the failed rename; the resume reads
	// it and completes bit-identically.
	resumed, err := RunWith(context.Background(), cfg, Hooks{Checkpoint: ck})
	if err != nil {
		t.Fatalf("resume after rename failure: %v", err)
	}
	if got := summaryJSON(t, resumed); !bytes.Equal(got, want) {
		t.Error("resumed summary differs from fault-free run")
	}
}

// TestChaosQuarantineSurvivesResume pins the Errors section's
// resume-invariance: quarantined homes recorded before a stop are
// restored from the checkpoint, so the final report is identical to an
// uninterrupted quarantined run.
func TestChaosQuarantineSurvivesResume(t *testing.T) {
	spec := "home.panic@2,times=-1"
	mk := func() (Config, Hooks) {
		cfg := testConfig(12, 2)
		cfg.Policy = FailurePolicy{Skip: true}
		return cfg, Hooks{Faults: mustFaults(t, cfg, spec)}
	}
	cfg, h := mk()
	uninterrupted, err := RunWith(context.Background(), cfg, h)
	if err != nil {
		t.Fatal(err)
	}
	want := summaryJSON(t, uninterrupted)

	cfg, h = mk()
	ck := &Checkpoint{Path: filepath.Join(t.TempDir(), "run.ckpt"), Every: 2}
	h.Checkpoint = ck
	if _, err := RunWith(context.Background(), cfg, stopAfter(6, h)); !errors.Is(err, ErrStopped) {
		t.Fatalf("stop run returned %v, want ErrStopped", err)
	}
	// Home 2's quarantine is inside the committed prefix: the resume
	// restores it from the checkpoint without re-running the home.
	cfg, _ = mk()
	resumed, err := RunWith(context.Background(), cfg, Hooks{Checkpoint: ck})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if len(resumed.Errors) != 1 || resumed.Errors[0].Index != 2 {
		t.Fatalf("resumed Errors = %+v, want home 2's quarantine restored", resumed.Errors)
	}
	if got := summaryJSON(t, resumed); !bytes.Equal(got, want) {
		t.Error("resumed quarantined run's summary differs from the uninterrupted one")
	}
}

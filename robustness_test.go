package powifi_test

// Facade-level coverage for the hardened-sweep surface: failure-policy
// options, partial results, fault injection, and the iterator
// early-break contract (workers drain; no goroutine leaks).

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	powifi "repro"
)

func TestScenarioFailureOptionConflicts(t *testing.T) {
	home := powifi.PaperHomes()[0]
	cases := []struct {
		name string
		opts []powifi.Option
		want string
	}{
		{"home+policy", []powifi.Option{powifi.WithHome(home), powifi.WithFailurePolicy(powifi.FailurePolicy{Skip: true})}, "only to fleet"},
		{"home+deadline", []powifi.Option{powifi.WithHome(home), powifi.WithDeadline(time.Second)}, "only to fleet"},
		{"home+faults", []powifi.Option{powifi.WithHome(home), powifi.WithFaults("home.panic@0")}, "only to fleet"},
		{"experiment+policy", []powifi.Option{powifi.WithExperiment("fig9"), powifi.WithFailurePolicy(powifi.FailurePolicy{Skip: true})}, "accepts only"},
		{"negative retry", []powifi.Option{powifi.WithFailurePolicy(powifi.FailurePolicy{Retry: -1})}, "need >= 0"},
		{"zero deadline", []powifi.Option{powifi.WithDeadline(0)}, "need > 0"},
		{"zero max-failed", []powifi.Option{powifi.WithMaxFailedHomes(0)}, "need > 0"},
		{"empty faults", []powifi.Option{powifi.WithFaults("")}, "empty fault spec"},
		{"bad faults site", []powifi.Option{powifi.WithFaults("reactor.meltdown@0")}, "unknown site"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := powifi.NewScenario(tc.opts...)
			if err == nil {
				t.Fatal("invalid scenario accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q missing %q", err, tc.want)
			}
		})
	}
}

// TestScenarioFailureJSONRoundTrip extends the declarative-form
// identity check to the failure options (WithFaults is execution state
// and deliberately has no JSON field).
func TestScenarioFailureJSONRoundTrip(t *testing.T) {
	sc := tinyFleet(t,
		powifi.WithFailurePolicy(powifi.FailurePolicy{Retry: 2, Skip: true}),
		powifi.WithMaxFailedHomes(4),
		powifi.WithDeadline(90*time.Second),
	)
	first, err := sc.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"failure_policy":{"retry":2,"skip":true}`, `"max_failed":4`, `"deadline":"1m30s"`} {
		if !strings.Contains(string(first), want) {
			t.Errorf("marshaled scenario %s missing %s", first, want)
		}
	}
	loaded, err := powifi.LoadScenario(first)
	if err != nil {
		t.Fatal(err)
	}
	second, err := loaded.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("round trip not identity:\n first: %s\nsecond: %s", first, second)
	}
}

// TestScenarioPartialReport drives graceful degradation end to end
// through the facade: an expired WithDeadline yields a Report (not an
// error) whose fleet summary is marked partial with the documented
// reason.
func TestScenarioPartialReport(t *testing.T) {
	sc := tinyFleet(t, powifi.WithDeadline(time.Nanosecond))
	rep, err := sc.Run(context.Background())
	if err != nil {
		t.Fatalf("deadline run returned error %v, want partial report", err)
	}
	if rep.Fleet == nil || !rep.Fleet.Partial || rep.Fleet.PartialReason != powifi.PartialDeadline {
		t.Fatalf("fleet summary = %+v, want partial with reason %q", rep.Fleet, powifi.PartialDeadline)
	}
}

// TestHomesPartialEnd pins the stream form of a partial run: the
// iterator yields the committed, unquarantined records and then one
// error naming the tripped budget and the committed count that Run's
// partial summary reports.
func TestHomesPartialEnd(t *testing.T) {
	sc := tinyFleet(t, powifi.WithHomes(8), powifi.WithSeed(3),
		powifi.WithFaults("home.panic@2,times=-1;home.panic@5,times=-1"),
		powifi.WithFailurePolicy(powifi.FailurePolicy{Skip: true}),
		powifi.WithMaxFailedHomes(1))
	rep, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Fleet.Partial || rep.Fleet.PartialReason != powifi.PartialFailureBudget || rep.Fleet.CommittedHomes != 6 {
		t.Fatalf("Run summary: partial=%v reason=%q committed=%d, want partial failure_budget 6",
			rep.Fleet.Partial, rep.Fleet.PartialReason, rep.Fleet.CommittedHomes)
	}

	var recs int
	var errs []error
	for _, err := range sc.Homes(context.Background()) {
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if len(errs) > 0 {
			t.Fatal("record yielded after the stream's error")
		}
		recs++
	}
	if recs != 4 {
		t.Errorf("yielded %d records, want 4 (6 committed minus 2 quarantined)", recs)
	}
	if len(errs) != 1 {
		t.Fatalf("stream ended with errors %v, want exactly one", errs)
	}
	for _, want := range []string{powifi.PartialFailureBudget, "6 of 8 homes committed"} {
		if !strings.Contains(errs[0].Error(), want) {
			t.Errorf("final error %q does not name %q", errs[0], want)
		}
	}
}

// TestScenarioFailFast pins the default failure policy through the
// facade: an injected home panic surfaces as a structured *HomeError.
func TestScenarioFailFast(t *testing.T) {
	sc := tinyFleet(t, powifi.WithFaults("home.panic@1"))
	_, err := sc.Run(context.Background())
	var he *powifi.HomeError
	if !errors.As(err, &he) {
		t.Fatalf("error %v is not a *HomeError", err)
	}
	if he.Index != 1 || he.Label != "fleet/home/1" {
		t.Fatalf("HomeError = %+v, want home 1", he)
	}
}

// waitGoroutines polls until the process is back to at most want live
// goroutines, failing the test if the count never settles — the leak
// detector for the iterator early-break tests.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines still live, want <= %d\n%s",
				runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHomesEarlyBreak certifies the fleet iterator's early-exit
// contract: breaking out of the loop stops the run — workers drain and
// exit cleanly, nothing further is yielded, and no goroutine outlives
// the loop.
func TestHomesEarlyBreak(t *testing.T) {
	// Warm process-wide lazy state (operating-point surface) so its
	// one-time goroutines don't read as leaks.
	if _, err := tinyFleet(t).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()

	sc := tinyFleet(t, powifi.WithHomes(16), powifi.WithWorkers(4))
	var got []int
	for r, err := range sc.Homes(context.Background()) {
		if err != nil {
			t.Fatalf("unexpected iterator error: %v", err)
		}
		got = append(got, r.Index)
		if len(got) == 2 {
			break
		}
	}
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("yielded homes %v, want [0 1] then stop", got)
	}
	waitGoroutines(t, base)
}

// TestBinsEarlyBreak is the single-home counterpart: breaking stops
// the simulation mid-home and leaves no goroutines behind.
func TestBinsEarlyBreak(t *testing.T) {
	if _, err := tinyHome(t).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()

	bins := 0
	for _, err := range tinyHome(t).Bins(context.Background()) {
		if err != nil {
			t.Fatalf("unexpected iterator error: %v", err)
		}
		if bins++; bins == 1 {
			break
		}
	}
	if bins != 1 {
		t.Fatalf("yielded %d bins after break, want 1", bins)
	}
	waitGoroutines(t, base)
}

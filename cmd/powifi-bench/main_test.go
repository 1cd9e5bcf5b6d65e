package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args []string) (code int, out, errBuf bytes.Buffer) {
	t.Helper()
	code = run(context.Background(), args, &out, &errBuf)
	return code, out, errBuf
}

func TestUsageOnNoArgs(t *testing.T) {
	code, _, errBuf := runCLI(t, nil)
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	for _, want := range []string{"usage:", "fig9", "table1", "-exact", "-scenario"} {
		if !strings.Contains(errBuf.String(), want) {
			t.Errorf("usage output missing %q", want)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	code, _, errBuf := runCLI(t, []string{"fig99"})
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errBuf.String(), `unknown experiment "fig99"`) {
		t.Errorf("stderr: %s", errBuf.String())
	}
}

func TestUnknownFlag(t *testing.T) {
	code, _, _ := runCLI(t, []string{"-bogus", "fig9"})
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestRunsExperiment(t *testing.T) {
	code, out, errBuf := runCLI(t, []string{"fig9"})
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	for _, want := range []string{"== fig9", "worst in-band", "completed in"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestScenarioFlag pins the declarative path shared with powifi-fleet:
// an experiment scenario file runs through the same facade, and ids or
// configuration flags alongside -scenario are a hard error.
func TestScenarioFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fig9.json")
	if err := os.WriteFile(path, []byte(`{"schema":1,"experiment":"fig9"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errBuf := runCLI(t, []string{"-scenario", path})
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	if !strings.Contains(out.String(), "== fig9") {
		t.Errorf("scenario run missing the fig9 table:\n%s", out.String())
	}

	code, _, errBuf = runCLI(t, []string{"-scenario", path, "fig13"})
	if code != 2 || !strings.Contains(errBuf.String(), "conflict with -scenario") {
		t.Errorf("ids alongside -scenario: exit %d, stderr %q", code, errBuf.String())
	}
	code, _, errBuf = runCLI(t, []string{"-scenario", path, "-full"})
	if code != 2 || !strings.Contains(errBuf.String(), "conflict with -scenario") {
		t.Errorf("-full alongside -scenario: exit %d, stderr %q", code, errBuf.String())
	}
}

// TestMetricsAddrFlag pins -metrics-addr: it requires a fleet scenario
// (telemetry is fleet-only), rejects experiment-id runs, and announces
// the bound address when it applies.
func TestMetricsAddrFlag(t *testing.T) {
	code, _, errBuf := runCLI(t, []string{"-metrics-addr", "127.0.0.1:0", "fig9"})
	if code != 2 {
		t.Fatalf("ids with -metrics-addr: exit %d, want 2 (stderr: %s)", code, errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "requires -scenario") {
		t.Errorf("stderr: %s", errBuf.String())
	}

	fleet := `{"schema":1,"homes":3,"seed":9,"workers":2,"horizon":"2h0m0s","bin":"30m0s","window":"2ms"}`
	path := filepath.Join(t.TempDir(), "fleet.json")
	if err := os.WriteFile(path, []byte(fleet), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errBuf := runCLI(t, []string{"-scenario", path, "-metrics-addr", "127.0.0.1:0"})
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "serving metrics on http://127.0.0.1:") {
		t.Errorf("stderr does not announce the metrics address: %s", errBuf.String())
	}
	if !strings.Contains(out.String(), "fleet: 3 homes") {
		t.Errorf("scenario output wrong:\n%s", out.String())
	}

	exp := `{"schema":1,"experiment":"fig9"}`
	epath := filepath.Join(t.TempDir(), "exp.json")
	if err := os.WriteFile(epath, []byte(exp), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errBuf = runCLI(t, []string{"-scenario", epath, "-metrics-addr", "127.0.0.1:0"})
	if code != 2 {
		t.Fatalf("experiment scenario with -metrics-addr: exit %d, want 2 (stderr: %s)", code, errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "requires a fleet scenario") {
		t.Errorf("stderr: %s", errBuf.String())
	}
}

// TestProfileFlags pins the -cpuprofile/-memprofile wiring on the bench
// CLI: profiles are written even for experiment-id runs.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	code, _, errBuf := runCLI(t, []string{"-cpuprofile", cpu, "-memprofile", mem, "fig9"})
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	for _, path := range []string{cpu, mem} {
		info, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if info.Size() == 0 {
			t.Errorf("profile %s is empty", path)
		}
	}
}

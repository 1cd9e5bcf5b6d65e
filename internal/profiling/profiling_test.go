package profiling

import (
	"os"
	"path/filepath"
	"testing"
)

// gzip magic: pprof profiles are gzip-compressed protobufs.
func isGzip(t *testing.T, path string) bool {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return len(data) > 2 && data[0] == 0x1f && data[1] == 0x8b
}

func TestNoProfilesIsANoOp(t *testing.T) {
	stop, err := Start("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal("second stop must stay a no-op:", err)
	}
}

func TestCPUProfileWritten(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.prof")
	stop, err := Start(path, "")
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has something to say; the file
	// must be valid either way.
	x := 0
	for i := 0; i < 1_000_000; i++ {
		x += i * i
	}
	_ = x
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if !isGzip(t, path) {
		t.Error("cpu profile is not a gzip-compressed pprof file")
	}
}

func TestMemProfileWrittenOnStop(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mem.prof")
	stop, err := Start("", path)
	if err != nil {
		t.Fatal(err)
	}
	// The heap profile is written by stop, not Start.
	if _, err := os.Stat(path); err == nil {
		t.Error("mem profile exists before stop")
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if !isGzip(t, path) {
		t.Error("mem profile is not a gzip-compressed pprof file")
	}
}

func TestBothProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	stop, err := Start(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if !isGzip(t, cpu) || !isGzip(t, mem) {
		t.Error("profiles missing or malformed")
	}
}

func TestUnwritableCPUPathFailsLoudly(t *testing.T) {
	if _, err := Start(filepath.Join(t.TempDir(), "no", "such", "dir", "cpu.prof"), ""); err == nil {
		t.Error("unwritable cpu path did not error")
	}
}

func TestUnwritableMemPathFailsOnStop(t *testing.T) {
	stop, err := Start("", filepath.Join(t.TempDir(), "no", "such", "dir", "mem.prof"))
	if err != nil {
		t.Fatal("mem path is only opened at stop; Start must succeed:", err)
	}
	if err := stop(); err == nil {
		t.Error("unwritable mem path did not error at stop")
	}
}

func TestRecordingSpansCPUProfileOnly(t *testing.T) {
	if Recording() {
		t.Fatal("recording before any profile started")
	}
	stop, err := Start("", filepath.Join(t.TempDir(), "mem.prof"))
	if err != nil {
		t.Fatal(err)
	}
	if Recording() {
		t.Error("a heap profile alone reports recording")
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	stop, err = Start(filepath.Join(t.TempDir(), "cpu.prof"), "")
	if err != nil {
		t.Fatal(err)
	}
	if !Recording() {
		t.Error("not recording while a CPU profile records")
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if Recording() {
		t.Error("still recording after stop")
	}
}

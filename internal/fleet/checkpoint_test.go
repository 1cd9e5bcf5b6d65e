package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/lifecycle"
)

// summaryJSON renders a result's serialized form for byte comparison.
func summaryJSON(t *testing.T, r *Result) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestCheckpointResumeBitIdentical is the resume contract: a run
// stopped after k homes and resumed from its checkpoint serializes
// byte-identically to an uninterrupted run — for several interrupt
// points, with the stop and the resume at different worker counts in
// both directions, for a classic and a device-lifecycle population.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	for _, pop := range populations {
		baseline, err := Run(context.Background(), pop.cfg(12, 4))
		if err != nil {
			t.Fatal(err)
		}
		want := summaryJSON(t, baseline)

		for _, tc := range []struct {
			stopAfter                  int
			stopWorkers, resumeWorkers int
		}{
			{1, 1, 8},
			{5, 8, 1},
			{7, 8, 8},
			{11, 1, 1},
		} {
			path := filepath.Join(t.TempDir(), "fleet.ckpt")
			ck := &Checkpoint{Path: path, Every: 3}

			// Interrupted leg: the Home hook stops the run after stopAfter
			// homes; RunWith writes the committed prefix and reports
			// ErrStopped with no result.
			seen := 0
			cfg := pop.cfg(12, tc.stopWorkers)
			res, err := RunWith(context.Background(), cfg, Hooks{
				Checkpoint: ck,
				Home: func(HomeRecord) bool {
					seen++
					return seen < tc.stopAfter
				},
			})
			if !errors.Is(err, ErrStopped) || res != nil {
				t.Fatalf("%s stop after %d: got (%v, %v), want ErrStopped", pop.name, tc.stopAfter, res, err)
			}
			if _, err := os.Stat(path); err != nil {
				t.Fatalf("%s stop after %d: no checkpoint written: %v", pop.name, tc.stopAfter, err)
			}

			// Resume leg, at a different worker count.
			cfg = pop.cfg(12, tc.resumeWorkers)
			resumed, err := RunWith(context.Background(), cfg, Hooks{Checkpoint: ck})
			if err != nil {
				t.Fatalf("%s resume after %d: %v", pop.name, tc.stopAfter, err)
			}
			if got := summaryJSON(t, resumed); !bytes.Equal(got, want) {
				t.Errorf("%s stop@%d workers %d->%d: resumed output differs from uninterrupted run",
					pop.name, tc.stopAfter, tc.stopWorkers, tc.resumeWorkers)
			}
			if resumed.OccW != baseline.OccW || resumed.HarvestW != baseline.HarvestW || resumed.RateW != baseline.RateW {
				t.Errorf("%s stop@%d: resumed Welford moments differ from uninterrupted run", pop.name, tc.stopAfter)
			}
			// A completed run removes its resume point.
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("%s stop@%d: checkpoint not removed after successful completion (stat: %v)",
					pop.name, tc.stopAfter, err)
			}
		}
	}
}

// TestCheckpointCancelWritesPrefix exercises the context-cancellation
// abort path: whatever contiguous prefix the reducer had committed at
// cancel time is checkpointed, and resuming completes the run
// bit-identically.
func TestCheckpointCancelWritesPrefix(t *testing.T) {
	baseline, err := Run(context.Background(), testConfig(12, 4))
	if err != nil {
		t.Fatal(err)
	}
	want := summaryJSON(t, baseline)

	path := filepath.Join(t.TempDir(), "fleet.ckpt")
	ck := &Checkpoint{Path: path, Every: 2}
	ctx, cancel := context.WithCancel(context.Background())
	done := 0
	_, err = RunWith(ctx, testConfig(12, 4), Hooks{
		Checkpoint: ck,
		Progress: func(d, total int) {
			done = d
			if d == 5 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if done < 5 {
		t.Fatalf("cancel fired after %d homes, want >= 5", done)
	}
	resumed, err := RunWith(context.Background(), testConfig(12, 2), Hooks{Checkpoint: ck})
	if err != nil {
		t.Fatal(err)
	}
	if got := summaryJSON(t, resumed); !bytes.Equal(got, want) {
		t.Error("resume after cancellation differs from uninterrupted run")
	}
}

// TestCheckpointConfigMismatch pins the refusal contract: a checkpoint
// resumes only under the configuration that produced it (worker count
// excluded), never silently restarting or folding into the wrong run.
func TestCheckpointConfigMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.ckpt")
	ck := &Checkpoint{Path: path}
	seen := 0
	_, err := RunWith(context.Background(), testConfig(12, 2), Hooks{
		Checkpoint: ck,
		Home:       func(HomeRecord) bool { seen++; return seen < 4 },
	})
	if !errors.Is(err, ErrStopped) {
		t.Fatal(err)
	}
	cfg := testConfig(12, 2)
	cfg.Seed = 999 // different run, same home count
	if _, err := RunWith(context.Background(), cfg, Hooks{Checkpoint: ck}); err == nil {
		t.Fatal("checkpoint of a different configuration accepted")
	} else if !strings.Contains(err.Error(), "different configuration") {
		t.Fatalf("unexpected mismatch error: %v", err)
	}
	// Corrupt file: must fail loudly, not resume garbage.
	if err := os.WriteFile(path, []byte(`{"schema":1,"config`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RunWith(context.Background(), testConfig(12, 2), Hooks{Checkpoint: ck}); err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}
}

// TestCheckpointResumesLifecycle pins that a device-lifecycle
// population checkpoints like any other: the checkpoint carries the
// per-archetype aggregates in its arch section (a classic one does
// not), and a run cancelled mid-sweep resumes at another worker count
// to output byte-identical to an uninterrupted run in every format,
// down to the order-sensitive per-archetype Welford moments.
func TestCheckpointResumesLifecycle(t *testing.T) {
	baseline, err := Run(context.Background(), lifeTestConfig(12, 1))
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "fleet.ckpt")
	ck := &Checkpoint{Path: path, Every: 2}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err = RunWith(ctx, lifeTestConfig(12, 4), Hooks{
		Checkpoint: ck,
		Progress: func(done, total int) {
			if done == 6 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no checkpoint after cancellation: %v", err)
	}
	if !bytes.Contains(data, []byte(`"arch":`)) {
		t.Fatal("lifecycle checkpoint lacks the arch section")
	}

	resumed, err := RunWith(context.Background(), lifeTestConfig(12, 8), Hooks{Checkpoint: ck})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	for _, enc := range []struct {
		name  string
		write func(*Result, *bytes.Buffer) error
	}{
		{"json", func(r *Result, b *bytes.Buffer) error { return r.WriteJSON(b) }},
		{"csv", func(r *Result, b *bytes.Buffer) error { return r.WriteCSV(b) }},
		{"text", func(r *Result, b *bytes.Buffer) error { return r.WriteText(b) }},
	} {
		var a, b bytes.Buffer
		if err := enc.write(baseline, &a); err != nil {
			t.Fatal(err)
		}
		if err := enc.write(resumed, &b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s output of the resumed lifecycle run differs from the uninterrupted run", enc.name)
		}
	}
	for k := range baseline.Arch {
		if !reflect.DeepEqual(baseline.Arch[k], resumed.Arch[k]) {
			t.Errorf("archetype %v aggregates differ after resume", lifecycle.Kind(k))
		}
	}

	// A classic population's checkpoint stays free of the section.
	classic := filepath.Join(t.TempDir(), "classic.ckpt")
	if _, err := RunWith(context.Background(), testConfig(12, 1), stopAfter(3, Hooks{
		Checkpoint: &Checkpoint{Path: classic},
	})); !errors.Is(err, ErrStopped) {
		t.Fatalf("classic stop run returned %v, want ErrStopped", err)
	}
	if data, err := os.ReadFile(classic); err != nil {
		t.Fatal(err)
	} else if bytes.Contains(data, []byte(`"arch"`)) {
		t.Error("classic checkpoint carries an arch section")
	}
}

// checkpointPayload writes an empty committed prefix of cfg's run
// through the real writer and returns its payload by key.
func checkpointPayload(t *testing.T, cfg Config) map[string]json.RawMessage {
	t.Helper()
	path := filepath.Join(t.TempDir(), "seed.ckpt")
	if err := (&ckWriter{ck: &Checkpoint{Path: path}, cfg: cfg}).write(newResult(cfg), 0); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var env checkpointEnvelope
	var p map[string]json.RawMessage
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(env.Payload, &p); err != nil {
		t.Fatal(err)
	}
	return p
}

// sealPayload wraps a payload in a correctly summed schema-2 envelope.
func sealPayload(t *testing.T, p map[string]json.RawMessage) []byte {
	t.Helper()
	raw, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(checkpointEnvelope{Schema: CheckpointSchema, Sum: payloadSum(raw), Payload: raw})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCheckpointPayloadKeys pins the payload's key set, which Result's
// JSON tags define: a classic payload carries exactly the schema-2
// keys, a lifecycle one adds arch, and an archetype written with the
// retired never_charged key still decodes (the key is ignored).
func TestCheckpointPayloadKeys(t *testing.T) {
	classic, life := testConfig(12, 1), lifeTestConfig(12, 1)
	want := []string{"bin_occ", "ch_occ", "config_hash", "cum_occ", "harvest", "harvest_w", "home_harvest",
		"homes", "latency", "next", "occ_w", "rate_w", "silent_bins", "total_bins"}
	if got := slices.Sorted(maps.Keys(checkpointPayload(t, classic))); !slices.Equal(got, want) {
		t.Errorf("classic payload keys = %v, want %v", got, want)
	}
	p := checkpointPayload(t, life)
	if got := slices.Sorted(maps.Keys(p)); !slices.Equal(got, append([]string{"arch"}, want...)) {
		t.Errorf("lifecycle payload keys = %v, want %v + arch", got, want)
	}
	var kinds []map[string]json.RawMessage
	if err := json.Unmarshal(p["arch"], &kinds); err != nil {
		t.Fatal(err)
	}
	for _, k := range kinds {
		k["never_charged"] = json.RawMessage("0")
	}
	raw, err := json.Marshal(kinds)
	if err != nil {
		t.Fatal(err)
	}
	p["arch"] = raw
	if _, _, err := decodeCheckpoint(sealPayload(t, p), "old.ckpt", life); err != nil {
		t.Errorf("payload with never_charged rejected: %v", err)
	}
}

// TestCheckpointDecodeRejectsHostileSections holds decodeCheckpoint to
// its never-panic contract on both sections of the payload: a correctly
// summed checkpoint whose classic aggregates or arch section are
// missing, unexpected, incomplete or at the wrong resolution is an
// error with a nil result.
func TestCheckpointDecodeRejectsHostileSections(t *testing.T) {
	classic, life := testConfig(12, 1), lifeTestConfig(12, 1)
	// arch rewrites the lifecycle payload's archetype section.
	arch := func(edit func([]map[string]json.RawMessage) any) map[string]json.RawMessage {
		p := checkpointPayload(t, life)
		var kinds []map[string]json.RawMessage
		if err := json.Unmarshal(p["arch"], &kinds); err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(edit(kinds))
		if err != nil {
			t.Fatal(err)
		}
		p["arch"] = raw
		return p
	}

	for _, cfg := range []Config{classic, life} {
		if _, _, err := decodeCheckpoint(sealPayload(t, checkpointPayload(t, cfg)), "intact.ckpt", cfg); err != nil {
			t.Fatalf("intact checkpoint rejected: %v", err)
		}
	}
	noCumOcc := checkpointPayload(t, classic)
	delete(noCumOcc, "cum_occ")
	shortChOcc := checkpointPayload(t, classic)
	var ch []json.RawMessage
	if err := json.Unmarshal(shortChOcc["ch_occ"], &ch); err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(ch[:2])
	if err != nil {
		t.Fatal(err)
	}
	shortChOcc["ch_occ"] = raw
	wrongLatency := checkpointPayload(t, classic)
	wrongLatency["latency"] = wrongLatency["harvest"]
	noArch := checkpointPayload(t, life)
	delete(noArch, "arch")
	strayArch := checkpointPayload(t, classic)
	strayArch["arch"] = checkpointPayload(t, life)["arch"]
	for _, tc := range []struct {
		name    string
		cfg     Config
		payload map[string]json.RawMessage
	}{
		{"missing cum_occ", classic, noCumOcc},
		{"two-entry ch_occ", classic, shortChOcc},
		{"latency at harvest's resolution", classic, wrongLatency},
		{"lifecycle without arch", life, noArch},
		{"classic with arch", classic, strayArch},
		{"null archetype", life, arch(func(k []map[string]json.RawMessage) any { k[2] = nil; return k })},
		{"short arch", life, arch(func(k []map[string]json.RawMessage) any { return k[:3] })},
		{"missing sketch", life, arch(func(k []map[string]json.RawMessage) any { delete(k[1], "soc"); return k })},
		{"wrong resolution", life, arch(func(k []map[string]json.RawMessage) any { k[0]["interval"] = k[0]["soc"]; return k })},
	} {
		next, res, err := decodeCheckpoint(sealPayload(t, tc.payload), "hostile.ckpt", tc.cfg)
		if err == nil || res != nil || next != 0 {
			t.Errorf("%s: decoded to (%d, %v, %v), want an error", tc.name, next, res, err)
		}
	}
}

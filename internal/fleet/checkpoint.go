package fleet

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"

	"repro/internal/faultinject"
	"repro/internal/lifecycle"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// CheckpointSchema identifies the checkpoint file format version. A
// mismatch fails loudly: resuming through a format change could fold
// state into the wrong aggregates and silently corrupt the run.
// Schema 2 wraps the reducer payload in a checksummed envelope and
// rotates a last-good generation.
const CheckpointSchema = 2

// defaultCheckpointEvery is the periodic write cadence in committed
// homes. A checkpoint is a few tens of kilobytes, so the default keeps
// write amplification negligible even on million-home sweeps while
// bounding lost work to a few seconds of simulation.
const defaultCheckpointEvery = 4096

// Checkpoint configures checkpoint/resume for a fleet run (attach via
// Hooks.Checkpoint). The reducer — which folds homes strictly in
// home-index order — periodically serializes its complete state: the
// next home index and every aggregate the committed prefix [0, next)
// has produced. Because per-home randomness derives from (seed, index)
// and the reducer is the single commit point, resuming from a
// checkpoint and re-running the remaining homes yields output
// bit-identical to an uninterrupted run at any worker count.
//
// Durability: each write goes to a fsynced temp file, the previous
// checkpoint (if any) rotates to Path+".prev", the temp file renames
// into place, and the directory is fsynced — so a crash at any instant
// leaves at least one intact generation on disk. The payload carries
// an fnv64a checksum; a resume that finds the latest generation torn
// or bit-rotted falls back to the ".prev" generation instead of
// failing (and fails loudly only when no intact generation remains).
//
// On RunWith entry, if Path exists it must be a checkpoint of the same
// configuration (fingerprint-checked; worker count and the failure/
// degradation budgets excluded); the run then resumes from its
// committed prefix, and the Progress/Home hooks fire only for the
// homes actually simulated this session. On successful completion both
// generations are removed; a partial run keeps them so the tail can be
// resumed. On cancellation or a Home hook stop, the committed prefix
// is written before RunWith returns.
//
// Device-lifecycle populations checkpoint like any other: their
// per-archetype aggregates are folded at commit too, so the committed
// prefix carries them.
type Checkpoint struct {
	// Path is the checkpoint file; Path+".prev" holds the previous
	// generation. Writes are atomic (fsynced temp file + rename), so a
	// crash mid-write leaves the previous checkpoint intact.
	Path string
	// Every is the number of committed homes between periodic writes;
	// <= 0 selects the default (4096). The terminal write on
	// cancellation, budget exhaustion or hook stop happens regardless.
	Every int
}

// prevPath returns the last-good generation's path.
func (ck *Checkpoint) prevPath() string { return ck.Path + ".prev" }

// checkpointEnvelope is the on-disk wrapper: schema, an fnv64a hex
// checksum of Payload, and the serialized reducer state. The checksum
// turns torn writes and bit rot into detected corruption instead of
// silently wrong aggregates.
type checkpointEnvelope struct {
	Schema  int             `json:"schema"`
	Sum     string          `json:"sum"`
	Payload json.RawMessage `json:"payload"`
}

// checkpointFile is the serialized reducer state. Sketches round-trip
// bit-exactly through their JSON form (integer counts, shortest-round-
// trip floats), and Welford accumulators are three exact scalars, so a
// loaded checkpoint restores the reducer to the identical float state.
type checkpointFile struct {
	ConfigHash string `json:"config_hash"`
	Homes      int    `json:"homes"`
	// Next is the first home index not yet committed: aggregates below
	// describe exactly homes [0, Next).
	Next int `json:"next"`

	SilentBins uint64 `json:"silent_bins"`
	TotalBins  uint64 `json:"total_bins"`

	CumOcc      *stats.Sketch    `json:"cum_occ"`
	ChOcc       [3]*stats.Sketch `json:"ch_occ"`
	HomeHarvest *stats.Sketch    `json:"home_harvest"`
	BinOcc      *stats.Sketch    `json:"bin_occ"`
	Harvest     *stats.Sketch    `json:"harvest"`
	Latency     *stats.Sketch    `json:"latency"`

	OccW     stats.Welford `json:"occ_w"`
	HarvestW stats.Welford `json:"harvest_w"`
	RateW    stats.Welford `json:"rate_w"`

	// Errors carries the quarantined homes of the committed prefix, so
	// a resumed skip-policy run reports the identical Errors section.
	Errors []HomeError `json:"errors,omitempty"`

	// Arch carries the per-archetype lifecycle aggregates of a
	// device-mix population; omitted otherwise, so classic checkpoints
	// are unchanged.
	Arch *[lifecycle.NumKinds]*archResult `json:"arch,omitempty"`
}

// checkpointHash fingerprints everything that determines a run's
// output. Workers is zeroed: parallelism never affects results, so a
// checkpoint taken at -workers 8 resumes correctly at -workers 1. The
// failure policy and degradation budgets are zeroed too: they decide
// when a run stops or what it retries, not what a committed home
// contains, so a deadline-truncated run may resume under a fresh
// budget (or a crashed fail-fast run resume with a skip policy).
func checkpointHash(cfg Config) string {
	cfg.Workers = 0
	cfg.Policy = FailurePolicy{}
	cfg.Deadline = 0
	cfg.MaxFailedHomes = 0
	return telemetry.HashConfig(cfg)
}

// payloadSum is the envelope checksum: fnv64a over the payload bytes.
func payloadSum(payload []byte) string {
	h := fnv.New64a()
	h.Write(payload)
	return fmt.Sprintf("%016x", h.Sum64())
}

// ckWriter owns one run's checkpoint writes: the rotation, the fsync
// discipline, and the session-local write generation that keys the
// injectable checkpoint faults.
type ckWriter struct {
	ck  *Checkpoint
	cfg Config
	fi  *faultinject.Set
	t   *telemetry.Run
	gen int
}

// write atomically serializes the reducer state: homes [0, next) are
// committed into res. The previous on-disk generation survives as
// ".prev" until the next write replaces it.
func (w *ckWriter) write(res *Result, next int) error {
	cf := checkpointFile{
		ConfigHash:  checkpointHash(w.cfg),
		Homes:       w.cfg.Homes,
		Next:        next,
		SilentBins:  res.SilentBins,
		TotalBins:   res.TotalBins,
		CumOcc:      res.CumOcc,
		ChOcc:       res.ChOcc,
		HomeHarvest: res.HomeHarvest,
		BinOcc:      res.BinOcc,
		Harvest:     res.Harvest,
		Latency:     res.Latency,
		OccW:        res.OccW,
		HarvestW:    res.HarvestW,
		RateW:       res.RateW,
		Errors:      res.Errors,
		Arch:        res.Arch,
	}
	payload, err := json.Marshal(cf)
	if err != nil {
		return fmt.Errorf("fleet: serializing checkpoint: %w", err)
	}
	env, err := json.Marshal(checkpointEnvelope{
		Schema:  CheckpointSchema,
		Sum:     payloadSum(payload),
		Payload: payload,
	})
	if err != nil {
		return fmt.Errorf("fleet: serializing checkpoint: %w", err)
	}
	gen := w.gen
	w.gen++

	// Injectable write faults, keyed by this session's write generation:
	// a short write truncates the file (torn write), corruption flips
	// one byte in the middle (which lands in the checksummed payload —
	// the envelope head is a fixed few dozen bytes). Both survive the
	// rename and must be caught by the resume path's checksum.
	data := env
	if f := w.fi.Hit(faultinject.CheckpointShortWrite, gen); f != nil {
		w.t.Counter(telemetry.CounterFaultsInjected).Inc()
		data = data[:len(data)/2]
	}
	if f := w.fi.Hit(faultinject.CheckpointCorrupt, gen); f != nil {
		w.t.Counter(telemetry.CounterFaultsInjected).Inc()
		data = append([]byte(nil), data...)
		data[len(data)/2] ^= 0x01
	}

	tmp := w.ck.Path + ".tmp"
	if err := writeFileSync(tmp, data); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("fleet: writing checkpoint: %w", err)
	}
	// Rotate the last good generation aside before the rename replaces
	// it; a crash between the two renames leaves only ".prev", which
	// the resume path reads.
	if _, err := os.Stat(w.ck.Path); err == nil {
		if err := os.Rename(w.ck.Path, w.ck.prevPath()); err != nil {
			os.Remove(tmp)
			return fmt.Errorf("fleet: rotating checkpoint: %w", err)
		}
		w.t.Counter(telemetry.CounterCheckpointRotations).Inc()
	}
	if f := w.fi.Hit(faultinject.CheckpointRenameFail, gen); f != nil {
		w.t.Counter(telemetry.CounterFaultsInjected).Inc()
		os.Remove(tmp)
		return fmt.Errorf("fleet: committing checkpoint: %w",
			fmt.Errorf("injected rename failure (generation %d)", gen))
	}
	if err := os.Rename(tmp, w.ck.Path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("fleet: committing checkpoint: %w", err)
	}
	syncDir(filepath.Dir(w.ck.Path))
	return nil
}

// writeFileSync writes data and fsyncs before closing, so the bytes
// are durable before the rename publishes them.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
// Best effort: some filesystems reject directory fsync, and the
// in-file fsync already bounds the loss to one rotation.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// remove deletes both on-disk generations (a completed run needs no
// resume point).
func (w *ckWriter) remove() {
	os.Remove(w.ck.Path)
	os.Remove(w.ck.prevPath())
}

// loadCheckpoint restores the reducer state from the checkpoint's
// latest intact generation and returns the next home index to simulate
// plus the restored Result. A missing checkpoint is not an error — the
// run starts fresh from home 0. A corrupt or torn latest generation
// falls back to ".prev" (counting a telemetry fallback); anything that
// prevents a faithful resume from every available generation (schema
// or configuration mismatch, out-of-range prefix, corrupt aggregates
// with no intact fallback) is an error: silently restarting would
// discard exactly the work the caller asked to keep.
func loadCheckpoint(ck *Checkpoint, cfg Config, t *telemetry.Run) (next int, res *Result, err error) {
	next, res, err = tryLoadCheckpoint(ck.Path, cfg)
	if err == nil {
		return next, res, nil
	}
	if os.IsNotExist(err) {
		// No latest generation. A lone ".prev" means the process died
		// between the rotation and the rename; resume from it.
		next, res, perr := tryLoadCheckpoint(ck.prevPath(), cfg)
		if perr == nil {
			t.Counter(telemetry.CounterCheckpointFallbacks).Inc()
			return next, res, nil
		}
		if os.IsNotExist(perr) {
			return 0, newResult(cfg), nil // fresh start
		}
		return 0, nil, perr
	}
	// The latest generation exists but did not load. Fall back to the
	// previous generation if it is intact; otherwise surface the
	// original error (a config mismatch fails the same way on both).
	if next, res, perr := tryLoadCheckpoint(ck.prevPath(), cfg); perr == nil {
		t.Counter(telemetry.CounterCheckpointFallbacks).Inc()
		return next, res, nil
	}
	return 0, nil, err
}

// tryLoadCheckpoint restores one checkpoint generation into a fresh
// Result. The caller decides whether a failure is fatal or a fallback.
func tryLoadCheckpoint(path string, cfg Config) (next int, res *Result, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, err // includes os.IsNotExist for the caller
	}
	return decodeCheckpoint(data, filepath.Base(path), cfg)
}

// decodeCheckpoint validates and restores a checkpoint from its raw
// bytes: envelope parse, schema gate, payload checksum, config hash,
// prefix consistency, then a TryMerge-validated restore into a fresh
// Result. It never panics on torn or hostile input — every malformed
// shape is an error (the FuzzCheckpointDecode target holds it to that).
// base names the source file in error messages.
func decodeCheckpoint(data []byte, base string, cfg Config) (next int, res *Result, err error) {
	var env checkpointEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return 0, nil, fmt.Errorf("fleet: parsing checkpoint %s: %w", base, err)
	}
	if env.Schema != CheckpointSchema {
		return 0, nil, fmt.Errorf("fleet: checkpoint %s has schema %d (this build reads schema %d)",
			base, env.Schema, CheckpointSchema)
	}
	if got := payloadSum(env.Payload); got != env.Sum {
		return 0, nil, fmt.Errorf("fleet: checkpoint %s is corrupt (payload sum %s, envelope says %s)",
			base, got, env.Sum)
	}
	var cf checkpointFile
	if err := json.Unmarshal(env.Payload, &cf); err != nil {
		return 0, nil, fmt.Errorf("fleet: parsing checkpoint %s: %w", base, err)
	}
	if want := checkpointHash(cfg); cf.ConfigHash != want {
		return 0, nil, fmt.Errorf("fleet: checkpoint %s was taken under a different configuration (hash %s, this run %s)",
			base, cf.ConfigHash, want)
	}
	if cf.Next < 0 || cf.Next > cf.Homes || cf.Homes != cfg.Homes {
		return 0, nil, fmt.Errorf("fleet: checkpoint %s has inconsistent prefix (next %d of %d homes, run has %d)",
			base, cf.Next, cf.Homes, cfg.Homes)
	}
	// Restore into a fresh Result through TryMerge-style validation:
	// each sketch must match the resolution newResult built, so a
	// truncated or hand-edited file cannot slip mismatched aggregates
	// into the run. Building fresh per generation also means a failed
	// restore never leaves a half-merged Result for the fallback.
	res = newResult(cfg)
	restore := func(dst, src *stats.Sketch, name string) error {
		if src == nil {
			return fmt.Errorf("fleet: checkpoint %s is missing the %s aggregate", base, name)
		}
		if err := dst.TryMerge(src); err != nil {
			return fmt.Errorf("fleet: checkpoint %s: %s: %w", base, name, err)
		}
		return nil
	}
	if err := restore(res.CumOcc, cf.CumOcc, "cum_occ"); err != nil {
		return 0, nil, err
	}
	for i := range res.ChOcc {
		if err := restore(res.ChOcc[i], cf.ChOcc[i], "ch_occ"); err != nil {
			return 0, nil, err
		}
	}
	if err := restore(res.HomeHarvest, cf.HomeHarvest, "home_harvest"); err != nil {
		return 0, nil, err
	}
	if err := restore(res.BinOcc, cf.BinOcc, "bin_occ"); err != nil {
		return 0, nil, err
	}
	if err := restore(res.Harvest, cf.Harvest, "harvest"); err != nil {
		return 0, nil, err
	}
	if err := restore(res.Latency, cf.Latency, "latency"); err != nil {
		return 0, nil, err
	}
	// The archetype section must be present exactly when the
	// population carries a device mix. Each sketch is resolution-checked
	// through the same TryMerge; the validated archetype is then adopted
	// whole (its sketches' counts were checked by their JSON codec).
	if (cf.Arch != nil) != (res.Arch != nil) {
		return 0, nil, fmt.Errorf("fleet: checkpoint %s: lifecycle aggregates present = %v, this run's population expects %v",
			base, cf.Arch != nil, res.Arch != nil)
	}
	if res.Arch != nil {
		for k, src := range cf.Arch {
			name := "arch/" + lifecycle.Kind(k).String()
			if src == nil {
				return 0, nil, fmt.Errorf("fleet: checkpoint %s is missing the %s aggregate", base, name)
			}
			fresh := res.Arch[k].sketches()
			for i, sk := range src.sketches() {
				if err := restore(fresh[i], sk, name); err != nil {
					return 0, nil, err
				}
			}
			res.Arch[k] = src
		}
	}
	res.SilentBins = cf.SilentBins
	res.TotalBins = cf.TotalBins
	res.OccW = cf.OccW
	res.HarvestW = cf.HarvestW
	res.RateW = cf.RateW
	res.Errors = cf.Errors
	return cf.Next, res, nil
}

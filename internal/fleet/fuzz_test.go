package fleet

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzCheckpointDecode holds decodeCheckpoint to its contract: on
// arbitrary (torn, bit-flipped, hostile) input it must never panic —
// every malformed shape is an error — and an accepted checkpoint must
// satisfy the prefix invariants the resume path relies on.
func FuzzCheckpointDecode(f *testing.F) {
	cfg, life := testConfig(12, 1), lifeTestConfig(12, 1)

	// Seed with genuine schema-2 envelopes (an empty committed prefix
	// written by the real writer), plus the classic failure shapes: a
	// torn write, a payload bit flip, a stale schema, and junk.
	written := func(cfg Config) []byte {
		path := filepath.Join(f.TempDir(), "seed.ckpt")
		w := &ckWriter{ck: &Checkpoint{Path: path}, cfg: cfg}
		if err := w.write(newResult(cfg), 3); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	valid := written(cfg)
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // torn write
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x01
	f.Add(flipped) // bit rot inside the checksummed payload
	f.Add([]byte(`{"schema":1,"sum":"0000000000000000","payload":{}}`))
	f.Add([]byte(`{"schema":2,"sum":"not-a-sum","payload":{}}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	// A device-lifecycle population's checkpoint, with its arch section.
	f.Add(written(life))

	// Every input is decoded under both populations, so the arch
	// section's shapes are exercised against each expectation.
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, cfg := range []Config{cfg, life} {
			next, res, err := decodeCheckpoint(data, "fuzz.ckpt", cfg)
			if err != nil {
				if res != nil {
					t.Fatalf("error %v but non-nil result", err)
				}
				continue
			}
			if res == nil {
				t.Fatal("nil error and nil result")
			}
			if next < 0 || next > cfg.Homes {
				t.Fatalf("accepted checkpoint with next=%d outside [0,%d]", next, cfg.Homes)
			}
		}
	})
}

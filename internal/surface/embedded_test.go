package surface

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"sync"
	"testing"

	"repro/internal/harvester"
)

var update = flag.Bool("update", false, "rewrite surfaces.bin from New's current output")

// built holds the production surfaces as New builds them, in table
// order, built once per test binary.
var built = sync.OnceValue(func() []*Surface {
	return []*Surface{
		New(harvester.NewBatteryFree(), DefaultOptions()),
		New(harvester.NewBatteryCharging(), DefaultOptions()),
	}
})

// TestEmbeddedTables pins the embedded table to the generator: New's
// output for both production harvesters, encoded, must equal
// surfaces.bin byte for byte. Any change to the diode or harvester
// parameters, the refinement, the options or the fingerprint fails here
// until the table is regenerated (go generate ./internal/surface). Since
// the table was built in another process, this is also the build's
// cross-process determinism check.
func TestEmbeddedTables(t *testing.T) {
	got := encodeTable(built())
	if *update {
		if err := os.WriteFile("surfaces.bin", got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote surfaces.bin (%d bytes)", len(got))
		return
	}
	if !bytes.Equal(got, embeddedTable) {
		t.Fatalf("surfaces.bin (%d bytes) differs from New's output (%d bytes); regenerate it with go generate ./internal/surface",
			len(embeddedTable), len(got))
	}
	if len(embeddedTable) > 100<<10 {
		t.Errorf("surfaces.bin is %d bytes, over its 100 KiB budget", len(embeddedTable))
	}
}

// TestForServesEmbeddedTable: For must serve both production harvesters
// from the table — grids, slopes and Stats bit-identical to New — and
// never rebuild them. A fingerprint change (say, a new harvester field)
// fails here loudly instead of silently bringing the build back.
func TestForServesEmbeddedTable(t *testing.T) {
	for _, want := range built() {
		got := For(want.h)
		if !got.embedded {
			t.Fatalf("%v: For rebuilt the surface instead of serving the embedded table", want.h.Version)
		}
		if got.Stats() != want.Stats() {
			t.Errorf("%v: Stats %+v, New %+v", want.h.Version, got.Stats(), want.Stats())
		}
		if err := sameGrids(got, want); err != nil {
			t.Errorf("%v: %v", want.h.Version, err)
		}
	}
}

// TestTruncatedTableFallsBack cuts the table inside the header, inside
// each grid's header, abscissae and curves, and one byte short of the
// end: every cut must decode to an error, never a panic, and For's
// loader must then build the surface exactly.
func TestTruncatedTableFallsBack(t *testing.T) {
	cuts := []int{0, 2, 6, 10}
	for _, s := range built() {
		for _, g := range []*grid{s.op, s.boot} {
			if g == nil {
				continue
			}
			// Locate the grid by its first two abscissae: its header
			// ends right before them.
			var probe []byte
			for _, x := range g.xs[:2] {
				probe = binary.LittleEndian.AppendUint64(probe, math.Float64bits(x))
			}
			xs := bytes.Index(embeddedTable, probe)
			if xs < 0 {
				t.Fatalf("%v: grid not found in the table", s.h.Version)
			}
			n := len(g.xs)
			cuts = append(cuts, xs-1, xs+8*n/2, xs+8*n*5/2)
		}
	}
	cuts = append(cuts, len(embeddedTable)-1)
	for _, cut := range cuts {
		if _, err := decodeTable(embeddedTable[:cut]); err == nil {
			t.Errorf("table cut at %d of %d bytes decoded without error", cut, len(embeddedTable))
		}
	}

	want := built()[1]
	got := load(want.h, Fingerprint(want.h), embeddedTable[:len(embeddedTable)-1])
	if got.embedded {
		t.Fatal("a truncated table was served")
	}
	if err := sameGrids(got, want); err != nil {
		t.Errorf("fallback build differs from New: %v", err)
	}
}

// TestTableMiss: a fingerprint the table does not hold is not served.
func TestTableMiss(t *testing.T) {
	s, err := fromTable(harvester.NewBatteryFree(), "not a fingerprint", embeddedTable)
	if err != nil || s != nil {
		t.Errorf("fromTable on an unknown fingerprint = %v, %v; want nil, nil", s, err)
	}
}

// sameGrids reports the first difference between two surfaces' grids,
// comparing float bits.
func sameGrids(a, b *Surface) error {
	for name, pair := range map[string][2]*grid{"op": {a.op, b.op}, "boot": {a.boot, b.boot}} {
		ga, gb := pair[0], pair[1]
		if (ga == nil) != (gb == nil) {
			return fmt.Errorf("%s: grid present on one side only", name)
		}
		if ga == nil {
			continue
		}
		if err := sameFloats(ga.xs, gb.xs); err != nil {
			return fmt.Errorf("%s xs: %v", name, err)
		}
		for c := range gb.ys {
			if err := sameFloats(ga.ys[c], gb.ys[c]); err != nil {
				return fmt.Errorf("%s curve %d: %v", name, c, err)
			}
			if err := sameFloats(ga.slopes[c], gb.slopes[c]); err != nil {
				return fmt.Errorf("%s slope %d: %v", name, c, err)
			}
		}
	}
	return nil
}

func sameFloats(a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d values vs %d", len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Errorf("value %d: %v vs %v", i, a[i], b[i])
		}
	}
	return nil
}

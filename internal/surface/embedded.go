package surface

import (
	_ "embed"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/harvester"
)

// embeddedTable holds the production surfaces (see the package doc).
// TestEmbeddedTables fails on any byte of drift from New's output, and
// go generate rewrites the file; like the goldens, it is generated on
// linux/amd64.
//
// Layout, little-endian throughout, floats as their IEEE-754 bits:
//
//	header  "PWSF" | u32 version | u32 entries
//	entry   u32 len | fingerprint | f64 Epsilon | f64 AMinW | f64 AMaxW |
//	        f64 VBandV | u64 MaxNodes | u32 grids (op, then boot if 2)
//	grid    u32 nodes | u32 evals | u32 unresolved | f64 maxMidErr |
//	        f64 xs[nodes] | f64 ys[3][nodes]
//
// Slopes are not stored: pchipSlopes recomputes them from xs and ys
// exactly as the build does.
//
//go:generate go test -run ^TestEmbeddedTables$ -update .
//go:embed surfaces.bin
var embeddedTable []byte

const (
	tableMagic   = "PWSF"
	tableVersion = 1
	tableCurves  = curveLnRp + 1
)

// load returns h's surface: decoded from table when it holds an entry
// for fingerprint key built at DefaultOptions, built by New otherwise.
func load(h *harvester.Harvester, key string, table []byte) *Surface {
	// A table that does not decode is a miss: the build gives the same
	// surface, only slower.
	if s, _ := fromTable(h, key, table); s != nil {
		return s
	}
	return New(h, DefaultOptions())
}

// fromTable decodes table and returns the surface of its entry for key,
// or nil when no entry matches.
func fromTable(h *harvester.Harvester, key string, table []byte) (*Surface, error) {
	entries, err := decodeTable(table)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if e.fingerprint != key || e.opts != DefaultOptions() {
			continue
		}
		s := newSurface(h, e.opts)
		s.op, s.boot = e.op, e.boot
		s.embedded = true
		return s, nil
	}
	return nil, nil
}

// tableEntry is one decoded surface: what it was built for, and its grids.
type tableEntry struct {
	fingerprint string
	opts        Options
	op, boot    *grid
}

// encodeTable serializes surfaces in the embedded table's layout.
func encodeTable(surfaces []*Surface) []byte {
	le := binary.LittleEndian
	f64s := func(b []byte, fs ...float64) []byte {
		for _, f := range fs {
			b = le.AppendUint64(b, math.Float64bits(f))
		}
		return b
	}
	b := le.AppendUint32([]byte(tableMagic), tableVersion)
	b = le.AppendUint32(b, uint32(len(surfaces)))
	for _, s := range surfaces {
		fp := Fingerprint(s.h)
		b = le.AppendUint32(b, uint32(len(fp)))
		b = append(b, fp...)
		b = f64s(b, s.opts.Epsilon, s.opts.AMinW, s.opts.AMaxW, s.opts.VBandV)
		b = le.AppendUint64(b, uint64(s.opts.MaxNodes))
		grids := []*grid{s.op}
		if s.boot != nil {
			grids = append(grids, s.boot)
		}
		b = le.AppendUint32(b, uint32(len(grids)))
		for _, g := range grids {
			b = le.AppendUint32(b, uint32(len(g.xs)))
			b = le.AppendUint32(b, uint32(g.evals))
			b = le.AppendUint32(b, uint32(g.unresolved))
			b = f64s(b, g.maxMidErr)
			b = f64s(b, g.xs...)
			for _, y := range g.ys {
				b = f64s(b, y...)
			}
		}
	}
	return b
}

// decodeTable parses a table in encodeTable's layout. Every length is
// checked against the bytes that remain, so a truncated or malformed
// table returns an error rather than panicking or over-allocating.
func decodeTable(b []byte) ([]tableEntry, error) {
	r := tableReader{b: b}
	if string(r.take(len(tableMagic))) != tableMagic {
		r.fail("bad magic")
	}
	if v := r.u32(); v != tableVersion {
		r.fail("version %d, want %d", v, tableVersion)
	}
	n := r.u32()
	var entries []tableEntry
	for i := uint32(0); i < n && r.err == nil; i++ {
		var e tableEntry
		e.fingerprint = string(r.take(int(r.u32())))
		e.opts.Epsilon = r.f64()
		e.opts.AMinW = r.f64()
		e.opts.AMaxW = r.f64()
		e.opts.VBandV = r.f64()
		e.opts.MaxNodes = int(r.u64())
		if grids := r.u32(); grids == 1 || grids == 2 {
			e.op = r.grid()
			if grids == 2 {
				e.boot = r.grid()
			}
		} else {
			r.fail("entry with %d grids", grids)
		}
		entries = append(entries, e)
	}
	if len(r.b) != 0 {
		r.fail("%d trailing bytes", len(r.b))
	}
	if r.err != nil {
		return nil, r.err
	}
	return entries, nil
}

// tableReader walks a table, recording the first error; once it has
// failed, every read returns a zero value.
type tableReader struct {
	b   []byte
	err error
}

var errTruncated = errors.New("surface table: truncated")

func (r *tableReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("surface table: "+format, args...)
	}
}

// take consumes the next n bytes.
func (r *tableReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b) {
		r.err = errTruncated
		return nil
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

func (r *tableReader) u32() uint32 {
	if p := r.take(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (r *tableReader) u64() uint64 {
	if p := r.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

func (r *tableReader) f64() float64 { return math.Float64frombits(r.u64()) }

// f64s consumes n floats, checking the length before allocating.
func (r *tableReader) f64s(n int) []float64 {
	if r.err == nil && (n < 0 || n > len(r.b)/8) {
		r.err = errTruncated
	}
	p := r.take(8 * n)
	if p == nil {
		return nil
	}
	fs := make([]float64, n)
	for i := range fs {
		fs[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
	}
	return fs
}

// grid decodes one grid and recomputes its slopes.
func (r *tableReader) grid() *grid {
	n := int(r.u32())
	g := &grid{}
	g.evals = int(r.u32())
	g.unresolved = int(r.u32())
	g.maxMidErr = r.f64()
	if r.err == nil && n < 2 {
		r.fail("grid of %d nodes", n)
	}
	g.xs = r.f64s(n)
	g.ys = make([][]float64, tableCurves)
	for c := range g.ys {
		g.ys[c] = r.f64s(n)
	}
	if r.err != nil {
		return nil
	}
	g.slopes = pchipSlopes(g.xs, g.ys)
	return g
}

package trace

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"slices"
	"strconv"
)

// WriteChrome renders the recorder's span stream as Chrome trace-event
// JSON (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
// — the format Perfetto and about://tracing load; timestamps and
// durations are microseconds): complete ("X") spans for
// run/phase/home/bin-batch/stall, thread-name metadata rows per worker,
// and instant ("i") events for every retained home's flight-recorder
// ring — each ring event placed inside its home's span proportionally
// to its bin index, plus one "flight_recorder" instant carrying the
// whole dump. Writing a nil Recorder emits an empty-but-valid trace.
//
// The export streams: it sorts an index of its events by timestamp,
// ties in event order, and writes the events one at a time from the
// recorder's span store through one reused buffer. It costs the index
// (4 bytes an event), never a copy of the spans or of the document. The
// bytes are those of one json.Encoder over the whole event array.
func (r *Recorder) WriteChrome(w io.Writer) error {
	d := r.chromeDoc()
	perm := make([]int32, d.events())
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortStableFunc(perm, func(a, b int32) int {
		ta, tb := d.ts(int(a)), d.ts(int(b))
		switch {
		case ta < tb:
			return -1
		case tb < ta:
			return 1
		}
		return 0
	})

	cw := &chromeWriter{w: w}
	cw.enc = json.NewEncoder(&cw.val)
	cw.b = append(make([]byte, 0, chromeFlushLen+512), `{"traceEvents":[`...)
	for k, i := range perm {
		if k > 0 {
			cw.b = append(cw.b, ',')
		}
		d.write(cw, int(i))
		if cw.err != nil {
			return cw.err
		}
		if len(cw.b) >= chromeFlushLen {
			cw.flush()
		}
	}
	cw.b = append(cw.b, "]}\n"...)
	cw.flush()
	return cw.err
}

// chromeDoc is the recorder state one Chrome export reads. Its events
// are numbered in the order the export breaks timestamp ties by: the
// process and thread metadata rows, the phase spans, the home-span
// stream, the spans_dropped instant, then each retained home's ring
// instants followed by its flight-recorder dump.
type chromeDoc struct {
	workers  int
	phases   []Span
	spans    spanStore
	dropped  uint64
	retained []HomeSummary
	instants []chromeInstant

	// Event-number bounds of each group.
	phase0, span0, drop0, inst0 int
}

// chromeInstant is one retained home's ring instant (ev indexes its
// ring) or its dump (ev = -1).
type chromeInstant struct {
	ts     float64
	tid    int
	hs, ev int
}

// chromeWindow is a retained home's last home span, which places its
// instants.
type chromeWindow struct {
	tid            int
	startUS, durUS float64
}

func (r *Recorder) chromeDoc() *chromeDoc {
	d := &chromeDoc{}
	if r != nil {
		r.mu.Lock()
		d.workers = r.workers
		d.phases = slices.Clone(r.sched.Phases)
		d.spans = r.spans // records below its length stay put
		d.dropped = r.spansDropped
		d.retained = r.retained()
		r.mu.Unlock()
	}
	d.phase0 = 2 + d.workers
	d.span0 = d.phase0 + len(d.phases)
	d.drop0 = d.span0 + d.spans.n
	d.inst0 = d.drop0
	if d.dropped > 0 {
		d.inst0++
	}
	if len(d.retained) == 0 {
		return d
	}

	wins := make(map[int]chromeWindow, len(d.retained))
	for _, hs := range d.retained {
		wins[hs.Index] = chromeWindow{}
	}
	for i := range d.spans.n {
		h := d.spans.at(i)
		if _, ok := wins[int(h.home)]; ok && h.kind == kindHome {
			wins[int(h.home)] = chromeWindow{tid: int(h.tid),
				startUS: float64(h.startNS) / 1e3, durUS: float64(h.durNS) / 1e3}
		}
	}
	// A home whose span the capped stream dropped keeps the zero
	// window: its dump is anchored at the origin so the forensics still
	// load.
	for k, hs := range d.retained {
		win := wins[hs.Index]
		nBins := 0
		for _, e := range hs.Ring {
			if e.Bin >= nBins {
				nBins = e.Bin + 1
			}
		}
		for j, e := range hs.Ring {
			ts := win.startUS
			if nBins > 0 && e.Bin >= 0 && win.durUS > 0 {
				ts += (float64(e.Bin) + 0.5) / float64(nBins) * win.durUS
			}
			d.instants = append(d.instants, chromeInstant{ts: ts, tid: win.tid, hs: k, ev: j})
		}
		d.instants = append(d.instants, chromeInstant{ts: win.startUS + win.durUS, tid: win.tid, hs: k, ev: -1})
	}
	return d
}

func (d *chromeDoc) events() int { return d.inst0 + len(d.instants) }

// ts returns event i's timestamp in µs.
func (d *chromeDoc) ts(i int) float64 {
	switch {
	case i < d.phase0:
		return 0
	case i < d.span0:
		return float64(d.phases[i-d.phase0].StartNS) / 1e3
	case i < d.drop0:
		return float64(d.spans.at(i-d.span0).startNS) / 1e3
	case i < d.inst0:
		return 0
	}
	return d.instants[i-d.inst0].ts
}

// write appends event i, its args' keys in the lexical order an
// encoded map takes.
func (d *chromeDoc) write(cw *chromeWriter, i int) {
	switch {
	case i == 0:
		cw.event("process_name", "M", 0, 0, 0, "")
		cw.argString("name", "powifi")
	case i < d.phase0:
		cw.event("thread_name", "M", i-1, 0, 0, "")
		if i == 1 {
			cw.argString("name", "run")
		} else {
			cw.argString("name", "worker "+strconv.Itoa(i-1))
		}
	case i < d.span0:
		sp := &d.phases[i-d.phase0]
		cw.event(sp.Name, "X", sp.TID, float64(sp.StartNS)/1e3, float64(sp.DurNS)/1e3, "")
		if sp.CPUS > 0 {
			cw.argFloat("cpu_s", sp.CPUS)
		}
	case i < d.drop0:
		h := d.spans.at(i - d.span0)
		cw.event(h.name(), "X", int(h.tid), float64(h.startNS)/1e3, float64(h.durNS)/1e3, "")
		if h.home >= 0 {
			cw.argInt("home", int64(h.home))
		}
	case i < d.inst0:
		cw.event("spans_dropped", "i", 0, 0, 0, "g")
		cw.argUint("dropped", d.dropped)
	default:
		in := &d.instants[i-d.inst0]
		hs := &d.retained[in.hs]
		if in.ev < 0 {
			cw.event("flight_recorder", "i", in.tid, in.ts, 0, "t")
			cw.argUint("dropped", hs.Dropped)
			cw.argUint("events", hs.Events)
			cw.argInt("home", int64(hs.Index))
			cw.argString("label", hs.Label)
			cw.argString("retained", hs.Retained)
			cw.arg("ring")
			cw.value(hs.Ring)
			break
		}
		e := &hs.Ring[in.ev]
		cw.event(e.Kind, "i", in.tid, in.ts, 0, "t")
		if e.Arg != 0 {
			cw.argFloat("arg", e.Arg)
		}
		cw.argInt("bin", int64(e.Bin))
		if e.Detail != "" {
			cw.argString("detail", e.Detail)
		}
		cw.argInt("home", int64(hs.Index))
	}
	cw.end()
}

// chromeFlushLen is the buffered output at which the export writes
// through.
const chromeFlushLen = 32 << 10

// chromeWriter appends the export's events to one reused buffer and
// writes it through every chromeFlushLen bytes. Names and numbers
// append directly, in encoding/json's form; any value outside that
// form's fast cases (a string that needs escaping, a non-finite float,
// a ring) goes through one reused json.Encoder, whose errors it keeps.
type chromeWriter struct {
	w    io.Writer
	b    []byte
	enc  *json.Encoder // encodes into val
	val  bytes.Buffer
	args bool // the current event's args object is open
	err  error
}

// event opens one event object. dur and s are left out when zero, as
// the omitempty fields of an encoded event struct are.
func (cw *chromeWriter) event(name, ph string, tid int, ts, dur float64, s string) {
	cw.b = append(cw.b, `{"name":`...)
	cw.string(name)
	cw.b = append(cw.b, `,"ph":`...)
	cw.string(ph)
	cw.b = append(cw.b, `,"pid":1,"tid":`...)
	cw.b = strconv.AppendInt(cw.b, int64(tid), 10)
	cw.b = append(cw.b, `,"ts":`...)
	cw.float(ts)
	if dur != 0 {
		cw.b = append(cw.b, `,"dur":`...)
		cw.float(dur)
	}
	if s != "" {
		cw.b = append(cw.b, `,"s":`...)
		cw.string(s)
	}
}

// arg starts the next member of the event's args object; keys never
// need escaping.
func (cw *chromeWriter) arg(key string) {
	if cw.args {
		cw.b = append(cw.b, ',')
	} else {
		cw.b = append(cw.b, `,"args":{`...)
		cw.args = true
	}
	cw.b = append(cw.b, '"')
	cw.b = append(cw.b, key...)
	cw.b = append(cw.b, `":`...)
}

func (cw *chromeWriter) argInt(key string, v int64) {
	cw.arg(key)
	cw.b = strconv.AppendInt(cw.b, v, 10)
}

func (cw *chromeWriter) argUint(key string, v uint64) {
	cw.arg(key)
	cw.b = strconv.AppendUint(cw.b, v, 10)
}

func (cw *chromeWriter) argFloat(key string, v float64) {
	cw.arg(key)
	cw.float(v)
}

func (cw *chromeWriter) argString(key, v string) {
	cw.arg(key)
	cw.string(v)
}

// end closes the event object and its args.
func (cw *chromeWriter) end() {
	if cw.args {
		cw.b = append(cw.b, '}')
		cw.args = false
	}
	cw.b = append(cw.b, '}')
}

// string appends s quoted. A string of printable ASCII that encoding/json
// would not escape (it escapes '"', '\\' and, by default, '<', '>' and
// '&') appends as is.
func (cw *chromeWriter) string(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			cw.value(s)
			return
		}
	}
	cw.b = append(cw.b, '"')
	cw.b = append(cw.b, s...)
	cw.b = append(cw.b, '"')
}

// float appends f as encoding/json does: shortest 'f' form within
// [1e-6, 1e21) and at zero; the 'e' form and non-finite values (an
// encoding error) go through the encoder.
func (cw *chromeWriter) float(f float64) {
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) || math.IsNaN(f) {
		cw.value(f)
		return
	}
	cw.b = strconv.AppendFloat(cw.b, f, 'f', -1, 64)
}

// value appends v as the encoder writes it, less its newline.
func (cw *chromeWriter) value(v any) {
	if cw.err != nil {
		return
	}
	cw.val.Reset()
	if cw.err = cw.enc.Encode(v); cw.err == nil {
		cw.b = append(cw.b, bytes.TrimSuffix(cw.val.Bytes(), []byte("\n"))...)
	}
}

func (cw *chromeWriter) flush() {
	if cw.err == nil {
		_, cw.err = cw.w.Write(cw.b)
	}
	cw.b = cw.b[:0]
}

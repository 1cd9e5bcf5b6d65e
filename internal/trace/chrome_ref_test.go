package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
)

// list returns the home-span stream as Spans.
func (s *spanStore) list() []Span {
	out := make([]Span, s.n)
	for i := range out {
		h := s.at(i)
		out[i] = Span{Name: h.name(), TID: int(h.tid), Home: int(h.home), StartNS: h.startNS, DurNS: h.durNS}
	}
	return out
}

// chromeEvent is one entry in the Chrome trace-event JSON array
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
// — the format Perfetto and about://tracing load). Timestamps and
// durations are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeRef is the Chrome export as it was before it streamed,
// kept as the reference the streamed WriteChrome is certified against
// byte for byte: it builds every event, with a map per event's args,
// sorts them stably by timestamp and encodes the whole document at
// once. It renders the recorder's span stream as Chrome trace-event
// JSON: complete ("X") spans for run/phase/home/bin-batch/stall,
// thread-name metadata rows per worker, and instant ("i") events for
// every retained home's flight-recorder ring — each ring event placed
// inside its home's span proportionally to its bin index, plus one
// "flight_recorder" instant carrying the whole dump. Writing a nil
// Recorder emits an empty-but-valid trace.
func (r *Recorder) writeChromeRef(w io.Writer) error {
	events := []chromeEvent{
		{Name: "process_name", Ph: "M", PID: 1, Args: map[string]any{"name": "powifi"}},
		{Name: "thread_name", Ph: "M", PID: 1, TID: 0, Args: map[string]any{"name": "run"}},
	}
	if r == nil {
		return writeChromeJSON(w, events)
	}

	r.mu.Lock()
	spans := slices.Concat(r.sched.Phases, r.spans.list())
	workers := r.workers
	dropped := r.spansDropped
	retained := r.retained()
	r.mu.Unlock()

	for tid := 1; tid <= workers; tid++ {
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: tid,
			Args: map[string]any{"name": fmt.Sprintf("worker %d", tid)},
		})
	}

	// Home span windows by index, for placing ring-event instants.
	type window struct {
		tid     int
		startUS float64
		durUS   float64
	}
	homes := make(map[int]window, len(retained))
	for _, sp := range spans {
		ev := chromeEvent{
			Name: sp.Name, Ph: "X", PID: 1, TID: sp.TID,
			TS: float64(sp.StartNS) / 1e3, Dur: float64(sp.DurNS) / 1e3,
		}
		switch {
		case sp.Home >= 0:
			ev.Args = map[string]any{"home": sp.Home}
			if sp.Name == "home" {
				homes[sp.Home] = window{tid: sp.TID, startUS: ev.TS, durUS: ev.Dur}
			}
		case sp.CPUS > 0: // run and phase spans
			ev.Args = map[string]any{"cpu_s": sp.CPUS}
		}
		events = append(events, ev)
	}
	if dropped > 0 {
		events = append(events, chromeEvent{
			Name: "spans_dropped", Ph: "i", PID: 1, TID: 0, S: "g",
			Args: map[string]any{"dropped": dropped},
		})
	}

	for _, hs := range retained {
		win, ok := homes[hs.Index]
		if !ok {
			// Span stream overflowed past this home; anchor its dump at
			// the origin so the forensics still load.
			win = window{}
		}
		nBins := 0
		for _, e := range hs.Ring {
			if e.Bin >= nBins {
				nBins = e.Bin + 1
			}
		}
		for _, e := range hs.Ring {
			ts := win.startUS
			if nBins > 0 && e.Bin >= 0 && win.durUS > 0 {
				ts += (float64(e.Bin) + 0.5) / float64(nBins) * win.durUS
			}
			args := map[string]any{"home": hs.Index, "bin": e.Bin}
			if e.Detail != "" {
				args["detail"] = e.Detail
			}
			if e.Arg != 0 {
				args["arg"] = e.Arg
			}
			events = append(events, chromeEvent{
				Name: e.Kind, Ph: "i", PID: 1, TID: win.tid, TS: ts, S: "t", Args: args,
			})
		}
		events = append(events, chromeEvent{
			Name: "flight_recorder", Ph: "i", PID: 1, TID: win.tid,
			TS: win.startUS + win.durUS, S: "t",
			Args: map[string]any{
				"home":     hs.Index,
				"label":    hs.Label,
				"retained": hs.Retained,
				"events":   hs.Events,
				"dropped":  hs.Dropped,
				"ring":     hs.Ring,
			},
		})
	}

	sort.SliceStable(events, func(i, j int) bool { return events[i].TS < events[j].TS })
	return writeChromeJSON(w, events)
}

func writeChromeJSON(w io.Writer, events []chromeEvent) error {
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{TraceEvents: events})
}

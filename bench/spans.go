package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a layer, recorded from outside the
// program. Spans stay in memory until the traced pass ends.
type span struct {
	Name       string
	Start, End int64 // ns since the tracer's epoch
	Parent     int   // index of the enclosing span, -1 at top level
	Home       int   // fleet home index, -1 outside the per-home loop
	// Replay marks work the benchmark repeats to time a layer alone
	// (an untraced copy of a batch, an evaluate over a finished batch),
	// which the program itself does not do at that point.
	Replay bool
	// Estimated marks a bin-sim span whose length is inferred from its
	// kernel event count, because the call it sits in continues into
	// other work before control returns.
	Estimated bool
}

// tracer records spans against one monotonic epoch.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its index for end.
func (t *tracer) begin(name string, parent, home int, replay bool) int {
	t.spans = append(t.spans, span{Name: name, Start: t.now(), End: -1, Parent: parent, Home: home, Replay: replay})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) { t.spans[i].End = t.now() }

// add records a span whose bounds were measured already.
func (t *tracer) add(s span) int {
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

func (t *tracer) dur(i int) int64 { return t.spans[i].End - t.spans[i].Start }

// selfTimes returns each span's self time: its duration minus the part
// its child spans cover. Children never overlap one another.
func (t *tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		d := s.End - s.Start
		self[i] += d
		if s.Parent >= 0 {
			self[s.Parent] -= d
		}
	}
	return self
}

// writeChrome writes the spans in Chrome trace-event format (load in
// chrome://tracing or ui.perfetto.dev). Each event's args carry the
// home index and the span's self time.
func (t *tracer) writeChrome(path string) error {
	type args struct {
		Home      int     `json:"home"`
		SelfUS    float64 `json:"self_us"`
		Replay    bool    `json:"replay,omitempty"`
		Estimated bool    `json:"estimated,omitempty"`
	}
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		TS   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		PID  int     `json:"pid"`
		TID  int     `json:"tid"`
		Args args    `json:"args"`
	}
	self := t.selfTimes()
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.Name, Ph: "X", PID: 1, TID: 1,
			TS:   float64(s.Start) / 1e3,
			Dur:  float64(s.End-s.Start) / 1e3,
			Args: args{Home: s.Home, SelfUS: float64(self[i]) / 1e3, Replay: s.Replay, Estimated: s.Estimated},
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{events, "ms"}); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	return f.Close()
}

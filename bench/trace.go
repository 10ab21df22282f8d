package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one query share its
// id; Parent is the index of the enclosing span, -1 for a query's root.
// Times are nanoseconds since the trace began.
type span struct {
	Name   string `json:"name"`
	Query  int    `json:"query"`
	Client int    `json:"client"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory until the run ends; the mutex is for
// the serving workload's concurrent clients.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent, client, query int) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Query: query, Client: client, Parent: parent, Start: now})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose interval is already known, as offsets from
// its parent's start — how the serving workload turns the durations
// serve.Result carries into spans.
func (t *tracer) add(name string, parent int, from, to time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent]
	t.spans = append(t.spans, span{Name: name, Query: p.Query, Client: p.Client, Parent: parent, Start: p.Start + int64(from), End: p.Start + int64(to)})
}

// durations returns the length in ms of every span with this name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.ms())
		}
	}
	return out
}

// coverage is the share of the traced stream that the layer spans
// account for: time inside spans directly under a query's root, over
// the time from each client's first query start to its last query end.
func (t *tracer) coverage() float64 {
	covered := 0.0
	first, last := map[int]int64{}, map[int]int64{}
	for _, s := range t.spans {
		switch {
		case s.Parent < 0:
			if f, ok := first[s.Client]; !ok || s.Start < f {
				first[s.Client] = s.Start
			}
			last[s.Client] = max(last[s.Client], s.End)
		case t.spans[s.Parent].Parent < 0:
			covered += s.ms()
		}
	}
	stream := 0.0
	for c := range first {
		stream += float64(last[c]-first[c]) / 1e6
	}
	return covered / stream
}

func (t *tracer) writeTo(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("trace-out: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace-out: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	return nil
}

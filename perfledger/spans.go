package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a module, recorded by the benchmark around
// the call (the program itself is not instrumented). Times are
// nanoseconds since the recorder's epoch.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	// Req is the request the span belongs to: the trace index offline,
	// the segment's lineage ID on the fleet.
	Req   string `json:"req"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	// Probe marks a measurement-only call that is not part of the
	// request's own work (a second decode, a merge into a counting sink):
	// it sits outside every request's root span and adds nothing to the
	// traced end-to-end time.
	Probe bool `json:"probe,omitempty"`
}

// Dur is the span's duration.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Recorder keeps spans in memory until the run ends. A nil *Recorder is
// the tracing-off state: every method is a no-op returning -1.
type Recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

// NewRecorder starts an empty recorder.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Begin opens a span and returns its ID.
func (r *Recorder) Begin(name, req string, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name, Req: req, Start: now, End: now})
	return id
}

// BeginProbe opens a probe span (see Span.Probe).
func (r *Recorder) BeginProbe(name, req string) int {
	id := r.Begin(name, req, -1)
	if id >= 0 {
		r.mu.Lock()
		r.spans[id].Probe = true
		r.mu.Unlock()
	}
	return id
}

// End closes span id.
func (r *Recorder) End(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// Add records an already-measured interval as a closed span (used for
// stage times the program itself timestamps, such as lineage
// transitions).
func (r *Recorder) Add(name, req string, parent int, start, end time.Time) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name, Req: req,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds()})
	return id
}

// Spans returns a copy of every recorded span.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// SelfTime is a span's duration minus the part of its interval covered by
// its children (the union of their intervals, so overlapping children
// are not subtracted twice).
func SelfTime(s Span, children []Span) time.Duration {
	ivs := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := c.Start, c.End
		if lo < s.Start {
			lo = s.Start
		}
		if hi > s.End {
			hi = s.End
		}
		if hi > lo {
			ivs = append(ivs, [2]int64{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	covered := int64(0)
	curLo, curHi := int64(0), int64(-1)
	for _, iv := range ivs {
		if iv[0] > curHi {
			if curHi > curLo {
				covered += curHi - curLo
			}
			curLo, curHi = iv[0], iv[1]
			continue
		}
		if iv[1] > curHi {
			curHi = iv[1]
		}
	}
	if curHi > curLo {
		covered += curHi - curLo
	}
	return s.Dur() - time.Duration(covered)
}

// Children indexes spans by parent ID.
func Children(spans []Span) map[int][]Span {
	out := map[int][]Span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			out[s.Parent] = append(out[s.Parent], s)
		}
	}
	return out
}

// WriteSpans writes the spans as one JSON document to
// dir/spans-<workload>-seed<seed>.json and returns the path.
func WriteSpans(dir, workload string, seed int64, spans []Span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
	data, err := json.Marshal(spans)
	if err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	return path, nil
}

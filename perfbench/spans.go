package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one pass, request or job share a group; Parent links
// a span to the span that caused it (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Group  string `json:"group"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. Every method is a no-op
// on a nil tracer, so the untraced path records nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(parent int, group, name string) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Group: group, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// selfTimes fills each closed span's Self: its duration minus the part of
// it that its children's intervals cover.
func selfTimes(spans []span) {
	kids := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.End < 0 {
			continue
		}
		s.Self = s.End - s.Start - covered(kids[s.ID], s.Start, s.End)
	}
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// spanSummary aggregates the spans of one name.
type spanSummary struct {
	N       int   `json:"n"`
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"`
}

// writeFile computes self times and writes every span plus a per-name
// summary as one JSON document.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	selfTimes(spans)
	sum := map[string]spanSummary{}
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		a := sum[s.Name]
		a.N++
		a.TotalNs += s.End - s.Start
		a.SelfNs += s.Self
		sum[s.Name] = a
	}
	b, err := json.MarshalIndent(struct {
		Summary map[string]spanSummary `json:"summary"`
		Spans   []span                 `json:"spans"`
	}{sum, spans}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

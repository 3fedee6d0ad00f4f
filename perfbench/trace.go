package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public function of the program. Times are seconds since the tracer
// started. Spans caused by one request or pass share a Trace id: the id of
// their root span.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Trace  int     `json:"trace"`
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory until write. A nil *tracer records nothing,
// so untraced passes run the same code with tracing off.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (0 for a root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	trace := id
	if parent > 0 {
		trace = t.spans[parent-1].Trace
	}
	now := time.Since(t.t0).Seconds()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: now, End: now})
	return id
}

// end closes span id and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	if t == nil || id == 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = time.Since(t.t0).Seconds()
	return s.dur()
}

// sum returns the total duration of the spans named name.
func (t *tracer) sum(name string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	total := 0.0
	for _, s := range t.spans {
		if s.Name == name {
			total += s.dur()
		}
	}
	return total
}

// write stores the spans as JSON lines in dir/spans.jsonl and a per-name
// summary of total and self time in dir/selftime.txt.
func (t *tracer) write(dir string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "spans.jsonl"), b.Bytes(), 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "selftime.txt"), []byte(selfTimes(t.spans)), 0o644)
}

// selfTimes summarizes spans by name: count, total time, and self time — a
// span's duration minus the part of it that its children's spans cover.
func selfTimes(spans []span) string {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent > 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	type row struct {
		n           int
		total, self float64
	}
	rows := map[string]*row{}
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &row{}
			rows[s.Name] = r
		}
		r.n++
		r.total += s.dur()
		r.self += s.dur() - covered(s, children[s.ID])
	}
	names := make([]string, 0, len(rows))
	for name := range rows {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return rows[names[i]].self > rows[names[j]].self })
	out := fmt.Sprintf("%-44s %8s %12s %12s\n", "span", "count", "total_s", "self_s")
	for _, name := range names {
		r := rows[name]
		out += fmt.Sprintf("%-44s %8d %12.6f %12.6f\n", name, r.n, r.total, r.self)
	}
	return out
}

// covered returns how much of parent's interval the union of kids covers.
// Children of one span may overlap (two workers), so intervals are merged.
func covered(parent span, kids []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	kids = append([]span(nil), kids...)
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	total, curS, curE := 0.0, -1.0, -1.0
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			total += curE - curS
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	return total + curE - curS
}

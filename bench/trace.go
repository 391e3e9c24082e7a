package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// span is one timed call the harness made into a layer. Start and End are
// nanoseconds since the tracer was created; Parent is the index of the span
// that caused it (-1 for a root); Run names the pass that recorded it.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Run    string `json:"run"`
}

// tracer keeps spans in one preallocated slice; slots are handed out with an
// atomic counter so the two serve clients record without a lock. A nil
// tracer records nothing and allocates nothing — the untraced run.
type tracer struct {
	t0      time.Time
	run     string
	spans   []span
	next    atomic.Int32
	dropped atomic.Int32
}

func newTracer(run string, capacity int) *tracer {
	return &tracer{t0: now(), run: run, spans: make([]span, capacity)}
}

// open starts a span whose children are still to come; close it with end.
func (t *tracer) open(name string, parent int32, start time.Time) int32 {
	if t == nil {
		return -1
	}
	id := t.next.Add(1) - 1
	if int(id) >= len(t.spans) {
		t.dropped.Add(1)
		return -1
	}
	t.spans[id] = span{Name: name, Start: start.Sub(t.t0).Nanoseconds(), Parent: parent, Run: t.run}
	return id
}

func (t *tracer) end(id int32, end time.Time) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = end.Sub(t.t0).Nanoseconds()
}

// leaf records a finished span from timestamps the caller already took.
func (t *tracer) leaf(name string, parent int32, start, end time.Time) {
	t.end(t.open(name, parent, start), end)
}

func (t *tracer) recorded() []span {
	if t == nil {
		return nil
	}
	n := int(t.next.Load())
	if n > len(t.spans) {
		n = len(t.spans)
	}
	return t.spans[:n]
}

// spanTotal sums one span name: how often, how long, and how much of that
// was the span's own (not covered by a child).
type spanTotal struct {
	Name  string
	Count int
	Total float64 // seconds
	Self  float64 // seconds
}

// selfTimes returns each span's duration minus the part of it its children
// cover. Children are clipped to the parent's interval and overlapping
// children (the two serve clients) are merged before subtracting.
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 && int(s.Parent) < len(spans) {
			p := spans[s.Parent]
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				kids[s.Parent] = append(kids[s.Parent], [2]int64{lo, hi})
			}
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		iv := kids[int32(i)]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		reached := s.Start // everything before it is already counted
		for _, k := range iv {
			if lo := max(k[0], reached); k[1] > lo {
				self[i] -= k[1] - lo
				reached = k[1]
			}
		}
	}
	return self
}

// totals aggregates spans by name, ordered by total time.
func totals(spans []span) []spanTotal {
	self := selfTimes(spans)
	by := map[string]*spanTotal{}
	for i, s := range spans {
		st := by[s.Name]
		if st == nil {
			st = &spanTotal{Name: s.Name}
			by[s.Name] = st
		}
		st.Count++
		st.Total += float64(s.End-s.Start) / 1e9
		st.Self += float64(self[i]) / 1e9
	}
	out := make([]spanTotal, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Name < out[j].Name
	})
	return out
}

func (t *tracer) writeFile(path string) error {
	blob, err := json.Marshal(struct {
		Dropped int32  `json:"dropped"`
		Spans   []span `json:"spans"`
	}{t.dropped.Load(), t.recorded()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

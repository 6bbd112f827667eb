package main

import (
	"bufio"
	"encoding/json"
	"os"
	"slices"
	"time"
)

// span is one timed call into a layer's public function. The traced run
// is single-goroutine, so a stack gives every span its parent.
type span struct {
	Name   string `json:"name"`
	ID     string `json:"id,omitempty"` // unit or cell the call served
	Start  int64  `json:"start_ns"`     // since the trace began
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 at the root
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory and writes them out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{t0: now()} }

// do times fn as a span named name and returns how long it took.
func (t *tracer) do(name, id string, fn func()) time.Duration {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent})
	t.stack = append(t.stack, i)
	t.spans[i].Start = int64(now().Sub(t.t0))
	fn()
	t.spans[i].End = int64(now().Sub(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
	return t.spans[i].dur()
}

// layerTime is what the spans of one name add up to.
type layerTime struct {
	Calls int
	Total time.Duration
	Self  time.Duration // total minus the part its child spans cover
	each  []float64     // per-call seconds, for means and percentiles
}

// byName aggregates the spans. Self time is a span's duration minus its
// direct children's.
func (t *tracer) byName() map[string]*layerTime {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := map[string]*layerTime{}
	for i, s := range t.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		lt.Calls++
		lt.Total += s.dur()
		lt.Self += s.dur() - child[i]
		lt.each = append(lt.each, seconds(s.dur()))
	}
	return out
}

// write stores the spans as NDJSON, one span per line in start order.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentile is the nearest-rank p-th percentile (0 for no samples).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(p*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

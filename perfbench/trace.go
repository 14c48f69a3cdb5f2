package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the index of the span that made the call, -1 for a root.
type span struct {
	Name   string        `json:"name"`
	Req    int64         `json:"req"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory for the traced run; they are written out
// when the run ends. A nil tracer records nothing, so untraced code paths
// call it unconditionally.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// start opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) start(req int64, parent int, name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: now})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores every span as JSON at path.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns, for each span, its duration minus the part of its
// interval that its child spans cover (children may overlap each other).
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ a, b time.Duration }
		var ivs []iv
		for _, c := range children[i] {
			a, b := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered time.Duration
		var cur iv
		for k, v := range ivs {
			switch {
			case k == 0:
				cur = v
			case v.a <= cur.b:
				cur.b = max(cur.b, v.b)
			default:
				covered += cur.b - cur.a
				cur = v
			}
		}
		if len(ivs) > 0 {
			covered += cur.b - cur.a
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerTimes sums self time and counts spans per span name.
type layerTimes struct {
	self  map[string]time.Duration
	count map[string]int
}

func summarize(spans []span) layerTimes {
	self := selfTimes(spans)
	lt := layerTimes{self: map[string]time.Duration{}, count: map[string]int{}}
	for i, s := range spans {
		lt.self[s.Name] += self[i]
		lt.count[s.Name]++
	}
	return lt
}

// meanSelfMs is the mean self time of one span name, in ms.
func (lt layerTimes) meanSelfMs(name string) float64 {
	if lt.count[name] == 0 {
		return 0
	}
	return ms(lt.self[name]) / float64(lt.count[name])
}

package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call recorded by the traced run. Start and End are
// offsets from the tracer's epoch; Parent is the index of the enclosing
// span (-1 for a root) and Unit names the evaluation unit the span
// belongs to ("" outside units).
type span struct {
	Name   string `json:"name"`
	Unit   string `json:"unit,omitempty"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps every span of one traced job in memory; they are
// written out only when the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// lane is the span stack of one goroutine: spans begun on a lane nest
// under the lane's innermost open span. A lane must only be used by
// the goroutine that owns it.
type lane struct {
	t     *tracer
	unit  string
	stack []int
}

// lane returns a new stack whose spans nest under parent (-1: roots).
func (t *tracer) lane(parent int) *lane {
	l := &lane{t: t}
	if parent >= 0 {
		l.stack = []int{parent}
	}
	return l
}

// begin opens a span and returns the function that closes it.
func (l *lane) begin(name string) func() {
	parent := -1
	if n := len(l.stack); n > 0 {
		parent = l.stack[n-1]
	}
	t := l.t
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Unit: l.unit, Parent: parent, Start: int64(time.Since(t.epoch))})
	t.mu.Unlock()
	l.stack = append(l.stack, id)
	return func() {
		end := int64(time.Since(t.epoch))
		t.mu.Lock()
		t.spans[id].End = end
		t.mu.Unlock()
		l.stack = l.stack[:len(l.stack)-1]
	}
}

// top is the index of the lane's innermost open span (-1 when none).
func (l *lane) top() int {
	if n := len(l.stack); n > 0 {
		return l.stack[n-1]
	}
	return -1
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns every span's self time: its duration minus the
// part of its interval covered by its children (overlapping children,
// such as units running on parallel workers, count once).
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi int64 }
		ivs := make([]iv, 0, len(kids[i]))
		for _, k := range kids[i] {
			lo, hi := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, curLo, curHi int64
		curLo, curHi = -1, -1
		for _, v := range ivs {
			if v.lo > curHi {
				covered += curHi - curLo
				curLo, curHi = v.lo, v.hi
			} else if v.hi > curHi {
				curHi = v.hi
			}
		}
		covered += curHi - curLo
		out[i] = s.dur() - time.Duration(covered)
	}
	return out
}

// selfByName sums self time per span name.
func selfByName(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for i, s := range spans {
		out[s.Name] += self[i]
	}
	return out
}

// checkTree reports the first structural defect of a span tree: an
// unclosed span, a parent recorded after its child, a child outside its
// parent's interval, or a negative self time.
func checkTree(spans []span) string {
	for i, s := range spans {
		switch {
		case s.End < s.Start:
			return "span " + s.Name + " ends before it starts"
		case s.Parent >= i:
			return "span " + s.Name + " has a parent recorded after it"
		case s.Parent >= 0 && (s.Start < spans[s.Parent].Start || s.End > spans[s.Parent].End):
			return "span " + s.Name + " lies outside its parent " + spans[s.Parent].Name
		}
	}
	for i, d := range selfTimes(spans) {
		if d < 0 {
			return "span " + spans[i].Name + " has negative self time"
		}
	}
	return ""
}

// writeChromeTrace writes spans in the Chrome trace-event format
// (viewable in chrome://tracing or Perfetto). Each traced job is one
// process row; each unit gets its own thread row so parallel workers
// do not overlap.
func writeChromeTrace(w io.Writer, jobs [][]span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	var evs []event
	for pid, spans := range jobs {
		tids := map[string]int{"": 0}
		for i, s := range spans {
			tid, ok := tids[s.Unit]
			if !ok {
				tid = len(tids)
				tids[s.Unit] = tid
			}
			evs = append(evs, event{
				Name: s.Name, Ph: "X", Pid: pid, Tid: tid,
				Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
				Args: map[string]any{"id": i, "parent": s.Parent, "unit": s.Unit},
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
}

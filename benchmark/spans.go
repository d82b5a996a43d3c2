package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around its calls
// into a layer. Spans of one client op share Op; Parent names the span that
// caused this one (0 for the root).
type span struct {
	ID, Parent int
	Name       string
	Start, End int64 // ns since the log was created
	Op         int64 // op identifier, 0 when the span belongs to no op
	Calls      int64 // calls the span covers, for probe spans
}

// spanLog keeps spans in memory until write. A nil *spanLog records
// nothing, which is how tracing is switched off.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns its id.
func (l *spanLog) begin(name string, parent int) int {
	return l.beginOp(name, parent, 0)
}

func (l *spanLog) beginOp(name string, parent int, op int64) int {
	if l == nil {
		return 0
	}
	now := int64(time.Since(l.t0))
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, Start: now, Op: op})
	return len(l.spans)
}

func (l *spanLog) end(id int) { l.endCalls(id, 0) }

// endCalls closes a span and records how many calls it covered.
func (l *spanLog) endCalls(id int, calls int64) {
	if l == nil || id == 0 {
		return
	}
	now := int64(time.Since(l.t0))
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id-1].End = now
	l.spans[id-1].Calls = calls
}

// meanNS is the mean duration of the closed spans called name.
func (l *spanLog) meanNS(name string) float64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var sum, n float64
	for _, s := range l.spans {
		if s.Name == name && s.End != 0 {
			sum += float64(s.End - s.Start)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// write renders the log as Chrome trace_event JSON (complete events, µs),
// with each span's id, parent, op and call count in args.
func (l *spanLog) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	l.mu.Lock()
	events := make([]event, 0, len(l.spans))
	for _, s := range l.spans {
		if s.End == 0 {
			continue // never closed: the op was still in flight at the end
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			PID: 1, TID: 1,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op, "calls": s.Calls},
		})
	}
	l.mu.Unlock()
	buf, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

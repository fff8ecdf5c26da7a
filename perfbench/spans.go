package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one op share Op; Parent
// names the span that caused this one (0 for a job span).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start"` // ns since the tracer's epoch
	End    int64  `json:"end"`
	Worker int    `json:"worker"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. Each worker appends
// to its own log, so recording takes no lock on the hot path.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64

	mu   sync.Mutex
	logs []*spanLog
}

// spanLog is one worker's span buffer; not safe for concurrent use.
type spanLog struct {
	t      *tracer
	worker int
	spans  []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now is the tracer clock: nanoseconds since its epoch.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// at converts a wall-clock instant to the tracer clock.
func (t *tracer) at(when time.Time) int64 { return int64(when.Sub(t.epoch)) }

// id allocates a span or op identifier, unique within the run.
func (t *tracer) id() uint64 { return t.ids.Add(1) }

func (t *tracer) log(worker int) *spanLog {
	l := &spanLog{t: t, worker: worker}
	t.mu.Lock()
	t.logs = append(t.logs, l)
	t.mu.Unlock()
	return l
}

// add records a finished span. Callers allocate id with tracer.id before
// the span's children start, so the children can name it as parent.
func (l *spanLog) add(id, parent, op uint64, name string, start, end int64) {
	l.spans = append(l.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end, Worker: l.worker})
}

// all returns every recorded span. Call it only after every worker has
// stopped recording.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, l := range t.logs {
		out = append(out, l.spans...)
	}
	return out
}

// selfTimes sums each span name's self time: its duration minus the part
// of that interval its child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	kids := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	kids = slices.Clone(kids)
	slices.SortFunc(kids, func(a, b span) int { return cmp.Compare(a.Start, b.Start) })
	var total, curS, curE int64
	curS, curE = -1, -1
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			total += curE - curS
			curS, curE = s, e
			continue
		}
		curE = max(curE, e)
	}
	total += curE - curS
	return time.Duration(total)
}

// spanDump is the JSON document a traced run writes at exit.
type spanDump struct {
	Workload string           `json:"workload"`
	Seed     uint64           `json:"seed"`
	Run      map[string]any   `json:"run"`
	SelfNs   map[string]int64 `json:"selfNs"`
	Spans    []span           `json:"spans"`
}

func writeSpans(path, workload string, seed uint64, info map[string]any, spans []span) error {
	self := make(map[string]int64)
	for k, v := range selfTimes(spans) {
		self[k] = int64(v)
	}
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.Start, b.Start) })
	b, err := json.Marshal(spanDump{Workload: workload, Seed: seed, Run: info, SelfNs: self, Spans: spans})
	if err != nil {
		return fmt.Errorf("encode span dump: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	info["span_dump"] = path
	info["spans"] = len(spans)
	return nil
}

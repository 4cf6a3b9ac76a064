package main

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a module's public API. Times are nanoseconds
// since the tracer was created. Trace groups the spans of one unit of work
// (workload/round/client); Parent is the span that caused this one (0 = none).
// Count is how many operations a batched span covers, so that ns-per-op is
// measured where the work happens.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Trace  string `json:"trace,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int    `json:"count,omitempty"`
}

// tracer keeps spans in memory until the benchmark ends. It is safe for
// concurrent use because dp.SanitizeBatch invokes the wrapped Recover and
// Sanitize callbacks from its own goroutines. With on == false every call is
// a no-op, which is what trace.overhead_share compares against.
type tracer struct {
	on    bool
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// open is a started span; close it with done.
type open struct {
	t      *tracer
	id     int64
	parent int64
	name   string
	trace  string
	start  time.Time
}

func (t *tracer) start(name string, parent int64, trace string) open {
	if !t.on {
		return open{}
	}
	return open{t: t, id: t.next.Add(1), parent: parent, name: name, trace: trace, start: time.Now()}
}

// done records the span as covering count operations and returns its length.
func (o open) done(count int) time.Duration {
	if o.t == nil {
		return 0
	}
	end := time.Now()
	s := span{ID: o.id, Parent: o.parent, Name: o.name, Trace: o.trace,
		Start: o.start.Sub(o.t.t0).Nanoseconds(), End: end.Sub(o.t.t0).Nanoseconds(), Count: count}
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, s)
	o.t.mu.Unlock()
	return end.Sub(o.start)
}

// total returns the summed length and operation count of every span with the
// given name.
func (t *tracer) total(name string) (ns float64, count int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name {
			ns += float64(s.End - s.Start)
			count += s.Count
		}
	}
	return ns, count
}

// totalChildren returns the summed length of the direct children of every
// span with the given name.
func (t *tracer) totalChildren(parent string) (ns float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	parents := map[int64]bool{}
	for _, s := range t.spans {
		if s.Name == parent {
			parents[s.ID] = true
		}
	}
	for _, s := range t.spans {
		if parents[s.Parent] {
			ns += float64(s.End - s.Start)
		}
	}
	return ns
}

// perOp is total time over total count for a span name; 0 when nothing ran.
func (t *tracer) perOp(name string) float64 {
	ns, n := t.total(name)
	if n == 0 {
		return 0
	}
	return ns / float64(n)
}

// writeFile writes the span log with the metrics derived from it.
func (t *tracer) writeFile(path string, header any) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(map[string]any{"run": header, "spans": t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

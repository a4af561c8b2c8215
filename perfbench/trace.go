package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer: its name, its interval on the
// tracer's clock, the span that caused it (-1 for a request root) and the
// request it belongs to.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	Req    int           `json:"req"`
}

// tracer keeps spans in memory. With on=false every call is a no-op, so
// the same replay code runs untraced to measure the tracing overhead.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

// begin opens a span and returns its handle (-1 when tracing is off).
func (t *tracer) begin(name string, parent, req int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.epoch), Parent: parent, Req: req})
	return len(t.spans) - 1
}

// end closes the span opened by begin.
func (t *tracer) end(h int) {
	if h >= 0 {
		t.spans[h].End = time.Since(t.epoch)
	}
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its children cover. Overlapping children are merged first,
// so concurrent children are not subtracted twice.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(s, children[i])
	}
	return self
}

// covered is the length of the union of the kids' intervals clipped to
// the parent's interval.
func covered(parent span, kids []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi time.Duration
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// layerTimes sums, per span name, the total and the self time in
// milliseconds, and counts the spans.
type layerTimes struct {
	total, self map[string]float64
	count       map[string]int
}

func (t *tracer) layers() layerTimes {
	lt := layerTimes{total: map[string]float64{}, self: map[string]float64{}, count: map[string]int{}}
	self := selfTimes(t.spans)
	for i, s := range t.spans {
		lt.total[s.Name] += float64((s.End - s.Start).Nanoseconds()) / 1e6
		lt.self[s.Name] += float64(self[i].Nanoseconds()) / 1e6
		lt.count[s.Name]++
	}
	return lt
}

// write stores the spans as JSON lines at path, creating its directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer: name is "<layer>.<call>", parent
// is the index of the enclosing span (-1 for an operation's root) and
// op the operation it belongs to.
type span struct {
	name       string
	start, end int64 // nanoseconds since the tracer's base
	parent     int32
	op         int64
}

// tracer keeps spans in memory; they are written out when the run ends.
// A nil *tracer records nothing, so the untraced loop pays one branch.
type tracer struct {
	base  time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent int32, op int64) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: int64(time.Since(t.base)), parent: parent, op: op})
	return int32(len(t.spans) - 1)
}

// end closes span i.
func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.spans[i].end = int64(time.Since(t.base))
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for i := range t.spans {
		if t.spans[i].name == name {
			out = append(out, time.Duration(t.spans[i].end-t.spans[i].start))
		}
	}
	return out
}

// layerTime is one row of the self-time table.
type layerTime struct {
	layer string
	spans int
	self  time.Duration
}

// selfTimes sums each layer's self time: a span's duration minus the
// part of it its children cover. Root spans (one per operation) belong
// to the "op" layer and their total duration is returned as opTime.
func (t *tracer) selfTimes() (rows []layerTime, opTime time.Duration) {
	child := make([]int64, len(t.spans))
	for i := range t.spans {
		if p := t.spans[i].parent; p >= 0 {
			child[p] += t.spans[i].end - t.spans[i].start
		}
	}
	byLayer := map[string]*layerTime{}
	for i := range t.spans {
		s := &t.spans[i]
		d := s.end - s.start
		if s.parent < 0 {
			opTime += time.Duration(d)
		}
		layer := s.name
		if j := strings.IndexByte(layer, '.'); j >= 0 {
			layer = layer[:j]
		}
		lt := byLayer[layer]
		if lt == nil {
			lt = &layerTime{layer: layer}
			byLayer[layer] = lt
		}
		lt.spans++
		lt.self += time.Duration(d - child[i])
	}
	for _, lt := range byLayer {
		rows = append(rows, *lt)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].self > rows[j].self })
	return rows, opTime
}

// printSelfTimes writes the per-layer self-time table. The "op" row is
// the benchmark client's own share of each operation (sequencing and
// output checks); the rows together account for the operations' time.
func (t *tracer) printSelfTimes(w io.Writer) {
	rows, opTime := t.selfTimes()
	fmt.Fprintf(w, "%-12s %10s %12s %8s\n", "layer", "spans", "self_ms", "share")
	var sum time.Duration
	for _, r := range rows {
		sum += r.self
		share := 0.0
		if opTime > 0 {
			share = float64(r.self) / float64(opTime)
		}
		fmt.Fprintf(w, "%-12s %10d %12.1f %7.1f%%\n", r.layer, r.spans, float64(r.self)/1e6, 100*share)
	}
	fmt.Fprintf(w, "%-12s %10s %12.1f (operations: %.1f ms)\n", "total", "", float64(sum)/1e6, float64(opTime)/1e6)
}

// maxChromeSpans bounds the trace file; the self-time table and the
// per-layer metrics always use every span.
const maxChromeSpans = 50000

// chromeEvent mirrors the complete-event form internal/trace.WriteChrome
// emits, so both load in the same viewers.
type chromeEvent struct {
	Name string                 `json:"name"`
	Cat  string                 `json:"cat,omitempty"`
	Ph   string                 `json:"ph"`
	TS   float64                `json:"ts"`
	Dur  float64                `json:"dur,omitempty"`
	PID  int                    `json:"pid"`
	TID  int                    `json:"tid"`
	Args map[string]interface{} `json:"args,omitempty"`
}

// writeChrome writes the first maxChromeSpans spans as Chrome
// trace_event JSON.
func (t *tracer) writeChrome(path string) error {
	n := len(t.spans)
	if n > maxChromeSpans {
		n = maxChromeSpans
	}
	events := make([]chromeEvent, 0, n)
	for i := 0; i < n; i++ {
		s := &t.spans[i]
		cat := s.name
		if j := strings.IndexByte(cat, '.'); j >= 0 {
			cat = cat[:j]
		}
		events = append(events, chromeEvent{
			Name: s.name, Cat: cat, Ph: "X",
			TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			PID: 1, TID: 1,
			Args: map[string]interface{}{"span": i, "parent": s.parent, "op": s.op},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = json.NewEncoder(bw).Encode(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{events, "ns"})
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

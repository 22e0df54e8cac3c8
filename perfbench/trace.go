package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"time"
)

// span is one timed call into a layer. Spans live in memory while the
// benchmark runs and are written out once at the end; they hold no
// pointers, so a few hundred thousand of them cost the collector
// nothing to scan.
type span struct {
	start, end time.Duration // since the tracer's origin
	parent     int32         // index of the enclosing span, -1 at the root
	name       uint16        // index into tracer.names
}

// tracer records spans around the benchmark's calls into the program.
// A nil *tracer records nothing, so untraced runs pay one nil check per
// call site.
type tracer struct {
	t0    time.Time
	spans []span
	names []string
	ids   map[string]uint16
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<18), ids: make(map[string]uint16)}
}

func (t *tracer) intern(name string) uint16 {
	id, ok := t.ids[name]
	if !ok {
		id = uint16(len(t.names))
		t.names = append(t.names, name)
		t.ids[name] = id
	}
	return id
}

// begin opens a span under parent (-1 for none) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: t.intern(name), start: time.Since(t.t0), parent: int32(parent)})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].end = time.Since(t.t0)
}

// add records an already-timed span (the batch loop times its calls
// itself and reuses those timestamps).
func (t *tracer) add(name string, start, end time.Time, parent int) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{name: t.intern(name), start: start.Sub(t.t0), end: end.Sub(t.t0), parent: int32(parent)})
}

// layer is a span name's layer: the text before the first dot.
func layer(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

// selfTimes sums, per layer, each span's duration minus the part its
// direct children cover.
func (t *tracer) selfTimes() map[string]float64 {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := make(map[string]float64)
	for i, s := range t.spans {
		out[layer(t.names[s.name])] += (s.end - s.start - child[i]).Seconds()
	}
	return out
}

// write dumps the spans as tab-separated lines: id, parent, name,
// start_ns, end_ns.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tname\tstart_ns\tend_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\n", i, s.parent, t.names[s.name], s.start.Nanoseconds(), s.end.Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

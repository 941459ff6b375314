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

// span is one timed call into a layer, recorded by the benchmark's own
// code around a public function of the program.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`  // ns since the tracer's epoch
	End    int64  `json:"end"`    // ns since the tracer's epoch
	Parent int32  `json:"parent"` // index of the enclosing span, -1 for a root
	Op     int32  `json:"op"`     // shared id of the op the span belongs to
}

// tracer keeps spans and counters in memory for one goroutine. A nil
// *tracer records nothing, so the untraced run pays one nil check per
// call site.
type tracer struct {
	epoch  time.Time
	spans  []span
	stack  []int32
	op     int32
	counts map[string]float64
}

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, counts: map[string]float64{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// setOp sets the op id stamped on spans opened from now on.
func (t *tracer) setOp(op int) {
	if t != nil {
		t.op = int32(op)
	}
}

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: t.parent(), Op: t.op})
	id := int32(len(t.spans) - 1)
	t.stack = append(t.stack, id)
	return id
}

// end closes the span begin returned; spans close innermost first.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].End = t.now()
	t.stack = t.stack[:len(t.stack)-1]
}

// add records an already closed span as a child of the innermost open one.
func (t *tracer) add(name string, start, end int64) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: t.parent(), Op: t.op})
}

func (t *tracer) parent() int32 {
	if n := len(t.stack); n > 0 {
		return t.stack[n-1]
	}
	return -1
}

// count adds v to a named counter.
func (t *tracer) count(name string, v float64) {
	if t != nil {
		t.counts[name] += v
	}
}

// merge appends other's spans and counters, keeping parent links valid.
func (t *tracer) merge(other *tracer) {
	off := int32(len(t.spans))
	shift := int64(other.epoch.Sub(t.epoch))
	for _, s := range other.spans {
		if s.Parent >= 0 {
			s.Parent += off
		}
		s.Start += shift
		s.End += shift
		t.spans = append(t.spans, s)
	}
	for k, v := range other.counts {
		t.counts[k] += v
	}
}

// selfTimes returns each span's duration minus the part of its interval
// that its child spans cover (overlapping children count once).
func selfTimes(spans []span) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	type iv struct{ a, b int64 }
	var ivs []iv
	for i, s := range spans {
		ivs = ivs[:0]
		for _, c := range children[i] {
			a, b := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		covered, reach := int64(0), s.Start
		for _, v := range ivs {
			if v.a > reach {
				reach = v.a
			}
			if v.b > reach {
				covered += v.b - reach
				reach = v.b
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerTimes sums self time by span name and collects each name's span
// durations.
type layerTimes struct {
	self map[string]int64
	durs map[string][]float64 // ns
}

func summarize(spans []span) layerTimes {
	lt := layerTimes{self: map[string]int64{}, durs: map[string][]float64{}}
	for i, st := range selfTimes(spans) {
		s := spans[i]
		lt.self[s.Name] += st
		lt.durs[s.Name] = append(lt.durs[s.Name], float64(s.End-s.Start))
	}
	return lt
}

// maxWrittenSpans bounds the span file so a long traced run cannot fill
// the disk; the metrics are always computed from every span.
const maxWrittenSpans = 200_000

// writeSpans writes spans as JSON lines, one span per line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if len(spans) > maxWrittenSpans {
		spans = spans[:maxWrittenSpans]
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

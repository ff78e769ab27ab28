package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the traced run. Op ties
// together the spans of one operation (a grid cell, a campaign unit, a
// serve request); Parent is the index of the enclosing span or -1.
type span struct {
	Name       string
	Start, End time.Duration // since the tracer's origin
	Parent     int
	Op         int
	// N and M are the span's work counts (instructions, cycles, ...);
	// Keys group spans for per-scheme and per-kernel breakdowns.
	N, M uint64
	Keys [2]string
}

// tracer records spans in memory. Each worker goroutine records through
// its own lane, so the hot path takes no lock; lanes are merged when the
// run ends.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	lanes  []*lane
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// lane is one goroutine's span log and open-span stack.
type lane struct {
	t     *tracer
	spans []span
	stack []int
	op    int
}

// lane returns a fresh lane for one goroutine.
func (t *tracer) lane() *lane {
	l := &lane{t: t}
	t.mu.Lock()
	t.lanes = append(t.lanes, l)
	t.mu.Unlock()
	return l
}

// begin opens a span named name under the innermost open span of the lane
// and returns its index for end.
func (l *lane) begin(name string) int {
	parent := -1
	if n := len(l.stack); n > 0 {
		parent = l.stack[n-1]
	}
	l.spans = append(l.spans, span{Name: name, Start: time.Since(l.t.origin), Parent: parent, Op: l.op})
	i := len(l.spans) - 1
	l.stack = append(l.stack, i)
	return i
}

// end closes span i (the innermost open one) and returns it for the caller
// to attach counts.
func (l *lane) end(i int) *span {
	l.stack = l.stack[:len(l.stack)-1]
	s := &l.spans[i]
	s.End = time.Since(l.t.origin)
	return s
}

// do records fn as one span.
func (l *lane) do(name string, fn func()) *span {
	i := l.begin(name)
	fn()
	return l.end(i)
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	Calls       int
	Self, Total time.Duration
	N, M        uint64
}

// profile is the merged view of a finished trace.
type profile struct {
	byName map[string]*layerStat
	// byKey aggregates spans of one name per key ("pipeline.run|mcf").
	byKey map[string]*layerStat
	// covered is the self time of every span that is not an operation
	// span: the part of worker time some layer call accounts for.
	covered time.Duration
}

// opSpan names the per-operation spans, which only group layer calls and
// are not themselves layer time.
const opSpan = "op"

// merge computes self times (duration minus child coverage) and per-name
// totals over every lane.
func (t *tracer) merge() *profile {
	p := &profile{byName: map[string]*layerStat{}, byKey: map[string]*layerStat{}}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, l := range t.lanes {
		child := make([]time.Duration, len(l.spans))
		for _, s := range l.spans {
			if s.Parent >= 0 {
				child[s.Parent] += s.End - s.Start
			}
		}
		for i, s := range l.spans {
			dur := s.End - s.Start
			self := dur - child[i]
			add := func(m map[string]*layerStat, k string) {
				st := m[k]
				if st == nil {
					st = &layerStat{}
					m[k] = st
				}
				st.Calls++
				st.Self += self
				st.Total += dur
				st.N += s.N
				st.M += s.M
			}
			add(p.byName, s.Name)
			for _, k := range s.Keys {
				if k != "" {
					add(p.byKey, s.Name+"|"+k)
				}
			}
			if s.Name != opSpan {
				p.covered += self
			}
		}
	}
	return p
}

// stat returns the aggregate for a span name (zero when absent).
func (p *profile) stat(name string) layerStat {
	if s := p.byName[name]; s != nil {
		return *s
	}
	return layerStat{}
}

// keyed returns the aggregate for one (name, key) pair.
func (p *profile) keyed(name, key string) layerStat {
	if s := p.byKey[name+"|"+key]; s != nil {
		return *s
	}
	return layerStat{}
}

// spanCount reports how many spans the trace holds, for the run summary.
func (t *tracer) spanCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, l := range t.lanes {
		n += len(l.spans)
	}
	return n
}

// names lists the recorded span names in order, for the run summary.
func (p *profile) names() []string {
	out := make([]string, 0, len(p.byName))
	for k := range p.byName {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// write saves every span as one JSON line, lane by lane.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for lane, l := range t.lanes {
		for _, s := range l.spans {
			if err := enc.Encode(struct {
				Lane int
				span
			}{lane, s}); err != nil {
				t.mu.Unlock()
				f.Close()
				return err
			}
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

package main

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"parlouvain/internal/obs"
	"parlouvain/internal/perf"
)

// Span is one timed call from the benchmark into a layer. Name is
// "<layer>.<call>"; Parent is the ID of the span that caused it, 0 for a
// root. Start and End are offsets from the tracer's epoch.
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Layer returns the part of the span name before the first dot.
func (s Span) Layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

// Dur returns the span's length.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced runs share the traced code paths at no cost.
type Tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Add records a finished span and returns its ID (0 on a nil tracer).
func (t *Tracer) Add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
	return id
}

// Begin opens a span; the returned function closes it. The span's ID is
// reserved at Begin, so children opened inside it may name it as parent.
func (t *Tracer) Begin(name string, parent int) (id int, end func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Now()
	t.mu.Lock()
	id = len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Start: start.Sub(t.epoch), End: start.Sub(t.epoch)})
	t.mu.Unlock()
	return id, func() {
		now := time.Now()
		t.mu.Lock()
		t.spans[id-1].End = now.Sub(t.epoch)
		t.mu.Unlock()
	}
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteJSONL writes one JSON span per line.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// SelfTimes returns, per layer, the summed self time of the spans: each
// span's duration minus the part of its interval covered by its children
// (overlapping children count once).
func SelfTimes(spans []Span) map[string]time.Duration {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Layer()] += s.Dur() - covered(s, children[s.ID])
	}
	return out
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent's interval.
func covered(parent Span, kids []Span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// Subtrees returns the spans descended from (and including) every root
// span with the given name, and the number of such roots.
func Subtrees(spans []Span, rootName string) ([]Span, int) {
	byID := make(map[int]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	var out []Span
	roots := 0
	for _, s := range spans {
		if s.Name == rootName && s.Parent == 0 {
			roots++
		}
		for cur, ok := s, true; ok; cur, ok = byID[cur.Parent] {
			if cur.Name == rootName && cur.Parent == 0 {
				out = append(out, s)
				break
			}
		}
	}
	return out, roots
}

// corePhases maps the parallel engine's phase event names to the metric
// suffixes of the paper's Figure 8 breakdown.
var corePhases = []struct{ event, metric string }{
	{perf.PhasePropagation, "propagation"},
	{perf.PhaseFindBest, "find_best"},
	{perf.PhaseUpdate, "update"},
	{perf.PhaseReconstruction, "reconstruction"},
}

// phaseMax sums each named phase's event durations per rank and returns,
// per phase, the maximum over ranks: the wall-clock share of phases the
// ranks run in lockstep.
func phaseMax(events []obs.Event, names ...string) map[string]time.Duration {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	perRank := map[string]map[int]time.Duration{}
	for _, e := range events {
		if !want[e.Name] {
			continue
		}
		if perRank[e.Name] == nil {
			perRank[e.Name] = map[int]time.Duration{}
		}
		perRank[e.Name][e.Rank] += time.Duration(e.Dur) * time.Microsecond
	}
	out := make(map[string]time.Duration, len(names))
	for _, n := range names {
		for _, d := range perRank[n] {
			out[n] = max(out[n], d)
		}
	}
	return out
}

// eventSpans turns one rank's recorder phase events into child spans of
// parent, using base as the wall-clock time of the recorder's epoch.
func eventSpans(tr *Tracer, parent, rank int, base time.Time, events []obs.Event, names map[string]string) {
	for _, e := range events {
		name, ok := names[e.Name]
		if !ok || e.Rank != rank || e.Dur <= 0 {
			continue
		}
		start := base.Add(time.Duration(e.TS) * time.Microsecond)
		tr.Add(name, parent, start, start.Add(time.Duration(e.Dur)*time.Microsecond))
	}
}

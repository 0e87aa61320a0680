package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"parlouvain/internal/obs"
)

func span(id, parent int, name string, start, end time.Duration) Span {
	return Span{ID: id, Parent: parent, Name: name, Start: start, End: end}
}

func TestSelfTimesSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []Span{
		span(1, 0, "algo.Detect", 0, 10),
		span(2, 1, "core.find_best", 1, 3),
		span(3, 1, "core.update", 2, 5),    // overlaps span 2: [1,5] counts once
		span(4, 1, "comm.exchange", 8, 12), // clipped to the parent's end
		span(5, 0, "gen.LFR", 20, 27),
	}
	got := SelfTimes(spans)
	want := map[string]time.Duration{"algo": 4, "core": 5, "comm": 4, "gen": 7}
	if len(got) != len(want) {
		t.Fatalf("SelfTimes = %v, want %v", got, want)
	}
	for layer, d := range want {
		if got[layer] != d {
			t.Errorf("self time of %s = %v, want %v", layer, got[layer], d)
		}
	}
}

func TestSelfTimesOfNestedSpansAddUpToTheRoot(t *testing.T) {
	spans := []Span{
		span(1, 0, "bench.solve", 0, 100),
		span(2, 1, "algo.Run", 10, 90),
		span(3, 2, "core.PLM", 20, 60),
		span(4, 3, "movesched.Greedy", 25, 30),
	}
	total := time.Duration(0)
	for _, d := range SelfTimes(spans) {
		total += d
	}
	if total != 100 {
		t.Errorf("self times add up to %v, want the root's 100", total)
	}
}

func TestSubtreesKeepsOnlyNamedRoots(t *testing.T) {
	spans := []Span{
		span(1, 0, "bench.setup", 0, 5),
		span(2, 1, "gen.LFR", 0, 4),
		span(3, 0, "bench.solve", 5, 9),
		span(4, 3, "core.Parallel", 5, 9),
		span(5, 4, "core.update", 6, 7),
		span(6, 0, "bench.solve", 9, 12),
	}
	got, roots := Subtrees(spans, "bench.solve")
	if roots != 2 {
		t.Errorf("roots = %d, want 2", roots)
	}
	var ids []int
	for _, s := range got {
		ids = append(ids, s.ID)
	}
	if len(ids) != 4 || ids[0] != 3 || ids[1] != 4 || ids[2] != 5 || ids[3] != 6 {
		t.Errorf("subtree span ids = %v, want [3 4 5 6]", ids)
	}
}

func TestPhaseMaxSumsPerRankThenTakesTheMax(t *testing.T) {
	events := []obs.Event{
		{Name: "STATE PROPAGATION", Rank: 0, Dur: 100},
		{Name: "STATE PROPAGATION", Rank: 0, Dur: 200},
		{Name: "STATE PROPAGATION", Rank: 1, Dur: 250},
		{Name: "FIND BEST COMMUNITY", Rank: 1, Dur: 50},
		{Name: "iteration", Rank: 0, Dur: 999},
	}
	got := phaseMax(events, "STATE PROPAGATION", "FIND BEST COMMUNITY", "UPDATE COMMUNITY INFORMATION")
	want := map[string]time.Duration{
		"STATE PROPAGATION":            300 * time.Microsecond,
		"FIND BEST COMMUNITY":          50 * time.Microsecond,
		"UPDATE COMMUNITY INFORMATION": 0,
	}
	for name, d := range want {
		if got[name] != d {
			t.Errorf("phaseMax[%s] = %v, want %v", name, got[name], d)
		}
	}
	if _, ok := got["iteration"]; ok {
		t.Error("phaseMax reported an event that was not asked for")
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *Tracer
	id, end := tr.Begin("core.PLM", 0)
	end()
	if id != 0 || tr.Add("x.y", 0, time.Now(), time.Now()) != 0 || tr.Spans() != nil {
		t.Error("nil tracer recorded a span")
	}
}

func TestTracerLinksChildrenToParents(t *testing.T) {
	tr := newTracer()
	root, endRoot := tr.Begin("bench.solve", 0)
	child, endChild := tr.Begin("core.Parallel", root)
	endChild()
	endRoot()
	spans := tr.Spans()
	if len(spans) != 2 || spans[1].ID != child || spans[1].Parent != root {
		t.Fatalf("spans = %+v, want core.Parallel as child of bench.solve", spans)
	}
	if spans[0].End < spans[1].End || spans[1].Start < spans[0].Start {
		t.Errorf("child %+v is not inside its parent %+v", spans[1], spans[0])
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps the printed metric set and the
// BENCHMARK.json declaration in step.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	type def struct{ Name, Unit string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricDef, want []def) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics printed, %d declared", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: printed %s (%s), declared %s (%s)", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, doc.EndToEnd)
	check("per_layer", perLayer, doc.PerLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("declared workload %q is not implemented", w.Name)
		}
	}
}

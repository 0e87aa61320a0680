package main

import (
	"log"
	"time"
)

// call is one timed detection call of a solve workload.
type call struct {
	graph   int
	traced  bool
	setup   time.Duration // set-up of the call's input
	wall    time.Duration
	heapMB  float64 // peak heap in use during the call
	allocMB float64 // bytes allocated during the call
}

// solveLoop runs a solve workload's timed window. Each step sets up the
// next graph of the pool (round-robin), solves it and releases it, so only
// one graph is in memory during a call. Untraced runs solve every graph at
// least once. Traced runs solve each input twice, untraced and then traced,
// and make at least two such pairs, so tracing cost is measured on the
// same input. Steps start until the window closes; calls are returned in
// order.
func solveLoop[In any](r *run, graphs int, setup func(g int) (In, error), solve func(g int, in In, tr *Tracer) (call, error), release func(In)) ([]call, error) {
	var calls []call
	minSteps := graphs
	if r.trace {
		minSteps = 2
	}
	deadline := time.Now().Add(r.seconds)
	for i := 0; i < minSteps || time.Now().Before(deadline); i++ {
		g := i % graphs
		t0 := time.Now()
		in, err := setup(g)
		if err != nil {
			return calls, err
		}
		setupDur := time.Since(t0)
		tracers := []*Tracer{nil}
		if r.trace {
			tracers = append(tracers, r.tr)
		}
		for _, tr := range tracers {
			c, err := solve(g, in, tr)
			r.record("solve", err)
			if err != nil {
				release(in)
				return calls, err
			}
			c.graph, c.traced, c.setup = g, tr != nil, setupDur
			log.Printf("call %d: graph %d traced=%v wall %.3fs heap %.0fMiB", len(calls), g, c.traced, c.wall.Seconds(), c.heapMB)
			calls = append(calls, c)
		}
		release(in)
	}
	return calls, nil
}

// callMetrics sets the end-to-end metrics of a solve workload from its
// untraced calls. solve_s is the median over graphs of each graph's median
// call, so every graph of the pool weighs the same. A run makes too few
// calls for a tail percentile with ten samples beyond it, so job_p90_ms
// falls back to the median there (see README.md).
func callMetrics(r *run, calls []call, graphs int) {
	perGraph := make([][]float64, graphs)
	var walls, heaps, setups []float64
	for _, c := range calls {
		if c.traced {
			continue
		}
		w := c.wall.Seconds()
		perGraph[c.graph] = append(perGraph[c.graph], w)
		walls = append(walls, w)
		heaps = append(heaps, c.heapMB)
		setups = append(setups, c.setup.Seconds())
	}
	meds := make([]float64, 0, graphs)
	for _, ws := range perGraph {
		if len(ws) > 0 {
			meds = append(meds, median(ws))
		}
	}
	p50 := median(walls)
	tail := p50
	if p, ok := tailPercentile(len(walls), 10); ok {
		tail = percentile(walls, min(p, 0.9))
	}
	r.set("setup_s", median(setups))
	r.set("solve_s", median(meds))
	r.set("peak_heap_mb", median(heaps))
	r.set("jobs_per_s", 1/p50)
	r.set("job_p50_ms", 1000*p50)
	r.set("job_p90_ms", 1000*tail)
}

// traceMetrics sets the tracing cost from the untraced/traced pairs and
// returns the index of the traced call with the median wall, whose layer
// breakdown the workload reports.
func traceMetrics(r *run, calls []call) int {
	var ratios, tw, allocs []float64
	var idx []int
	for i := 1; i < len(calls); i += 2 {
		ratios = append(ratios, calls[i].wall.Seconds()/calls[i-1].wall.Seconds())
		tw = append(tw, calls[i].wall.Seconds())
		idx = append(idx, i)
		// Allocation is read from the untraced call: the recorder's own
		// events would inflate the traced one.
		allocs = append(allocs, calls[i-1].allocMB)
	}
	m := idx[medianIndex(tw)]
	r.set("trace.solve_s", calls[m].wall.Seconds())
	r.set("trace.overhead_frac", median(ratios)-1)
	r.set("core.alloc_mb", median(allocs))
	return m
}

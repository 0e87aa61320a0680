package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"time"

	"parlouvain/internal/algo"
	"parlouvain/internal/comm"
	"parlouvain/internal/core"
	"parlouvain/internal/gen"
	"parlouvain/internal/graph"
	"parlouvain/internal/movesched"
	"parlouvain/internal/obs"
)

// rmat-shared: the shared-memory plm engine through the algo registry on
// one rank with two threads, on Graph500 R-MAT graphs.
const (
	rmatScale   = 16
	rmatThreads = 2
	rmatGraphs  = 4
)

// rmatInput is one graph and the single rank's share of it.
type rmatInput struct {
	el    graph.EdgeList
	n     int
	local graph.EdgeList
}

func rmatSetup(seed uint64, tr *Tracer) (*rmatInput, error) {
	root, end := tr.Begin("bench.setup", 0)
	defer end()
	in := &rmatInput{n: 1 << rmatScale}
	var err error
	_, done := tr.Begin("gen.RMAT", root)
	in.el, err = gen.RMAT(gen.DefaultRMAT(rmatScale, seed))
	done()
	if err != nil {
		return nil, err
	}
	_, done = tr.Begin("graph.SplitEdges", root)
	in.local = graph.SplitEdges(in.el, 1)[0]
	done()
	return in, nil
}

// rmatTrace is what a traced call leaves for the layer metrics.
type rmatTrace struct {
	events []obs.Event
	reg    *obs.Registry
}

// rmatSolve runs plm through the registry on a fresh one-rank group.
func rmatSolve(in *rmatInput, threads int, heap *heapSampler, tr *Tracer) (call, *algo.Result, *rmatTrace, error) {
	d, err := algo.Get("plm")
	if err != nil {
		return call{}, nil, nil, err
	}
	opt := algo.Options{Threads: threads}
	var out *rmatTrace
	var base time.Time
	if tr != nil {
		opt.Recorder, opt.Metrics = obs.NewRecorder(), obs.NewRegistry()
		base = time.Now().Add(-time.Duration(opt.Recorder.Now()) * time.Microsecond)
		out = &rmatTrace{reg: opt.Metrics}
	}
	trs := comm.NewMemGroup(1)
	defer trs[0].Close()

	runtime.GC()
	heap.Take()
	allocs0 := readUint(heapAllocs)
	root, end := tr.Begin("bench.solve", 0)
	id, done := tr.Begin("algo.Detect", root)
	start := time.Now()
	res, err := d.Detect(context.Background(), algo.Graph{Comm: comm.New(trs[0]), Local: in.local, N: in.n}, opt)
	c := call{wall: time.Since(start)}
	done()
	end()
	c.allocMB = float64(readUint(heapAllocs)-allocs0) / (1 << 20)
	c.heapMB = heap.Take()
	if err != nil {
		return c, nil, nil, err
	}
	if out != nil {
		out.events = opt.Recorder.Events()
		eventSpans(tr, id, 0, base, out.events, map[string]string{
			"algo_gather": "algo.gather", "algo_compute": "algo.compute", "algo_broadcast": "algo.broadcast",
		})
	}
	return c, res, out, nil
}

// sameAlgoResult requires a repeat solve to reproduce the reference
// exactly: Q, level count, bytes on the wire and the partition.
func sameAlgoResult(ref, got *algo.Result) error {
	switch {
	case got.Q != ref.Q:
		return fmt.Errorf("Q %.12f differs from reference %.12f", got.Q, ref.Q)
	case len(got.Levels) != len(ref.Levels):
		return fmt.Errorf("%d levels, reference has %d", len(got.Levels), len(ref.Levels))
	case got.CommBytes != ref.CommBytes:
		return fmt.Errorf("%d bytes on the wire, reference sent %d", got.CommBytes, ref.CommBytes)
	case !slices.Equal(got.Assignment, ref.Assignment):
		return errors.New("assignment differs from reference")
	}
	return nil
}

func runRMATShared(r *run) error {
	heap := startHeapSampler()
	defer heap.Stop()
	refs := make([]*algo.Result, rmatGraphs)
	var qs []float64
	var traces []*rmatTrace // parallel to calls
	setup := func(g int) (*rmatInput, error) { return rmatSetup(derive(r.seed, uint64(g)), r.tr) }
	solve := func(g int, in *rmatInput, tr *Tracer) (call, error) {
		c, res, t, err := rmatSolve(in, rmatThreads, heap, tr)
		traces = append(traces, t)
		switch {
		case err != nil:
		case refs[g] != nil:
			err = sameAlgoResult(refs[g], res)
		default:
			// The graph's first call: check it against the input.
			refs[g] = res
			_, done := r.tr.Begin("graph.Build", 0)
			built := graph.Build(in.el, in.n)
			done()
			if err = checkMembership(res.Assignment, in.n); err == nil {
				err = checkQ(built, res.Assignment, res.Q)
			}
			qs = append(qs, res.Q)
		}
		return c, err
	}
	calls, err := solveLoop(r, rmatGraphs, setup, solve, func(*rmatInput) {})
	if err != nil {
		return err
	}

	// Graph 0 again, outside the timed window, for the checks that need a
	// second solve and for the layer probes.
	in, err := setup(0)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	if r.trace {
		r.set("gen.generate_s", spanMedian(r.tr, "gen.RMAT"))
		r.set("graph.split_s", spanMedian(r.tr, "graph.SplitEdges"))
		r.set("graph.build_s", spanMedian(r.tr, "graph.Build"))
		m := traceMetrics(r, calls)
		t := traces[m]
		ph := phaseMax(t.events, "algo_gather", "algo_compute", "algo_broadcast")
		r.set("algo.gather_s", ph["algo_gather"].Seconds())
		r.set("algo.compute_s", ph["algo_compute"].Seconds())
		r.set("algo.broadcast_s", ph["algo_broadcast"].Seconds())
		r.corePhases(t.events, calls[m].wall)
		r.set("wire.bytes_sent", float64(refs[calls[m].graph].CommBytes))
		r.commRegistry([]*obs.Registry{t.reg})
		r.selfTimes("bench.solve")
		r.rmatProbes(graph.Build(in.el, in.n), refs[0])
		return nil
	}
	// Tracing must leave the result unchanged.
	_, err = solve(0, in, newTracer())
	r.record("traced solve", err)
	// R-MAT has no planted partition; nmi is the agreement with the
	// single-thread solve, which plm promises to reproduce exactly.
	_, t1, _, err := rmatSolve(in, 1, heap, nil)
	var s float64
	if err == nil {
		s, err = nmi(refs[0].Assignment, t1.Assignment)
	}
	if err == nil {
		err = sameAlgoResult(refs[0], t1)
	}
	r.record("single-thread solve", err)
	r.set("modularity", mean(qs))
	r.set("nmi", s)
	callMetrics(r, calls, rmatGraphs)
	return nil
}

// rmatProbes times the layers under plm directly on the built level-0
// graph: the move schedule plm derives from it, and plm itself at two
// threads and at one, whose results must match the registry solve.
func (r *run) rmatProbes(g *graph.Graph, ref *algo.Result) {
	_, done := r.tr.Begin("movesched.Permutation", 0)
	order := movesched.Permutation(g.N, movesched.OrderDefault, g.Deg, 0)
	done()
	_, done = r.tr.Begin("movesched.Greedy", 0)
	col := movesched.Greedy(g.N, order, func(u uint32, emit func(v uint32)) {
		for _, v := range g.Nbr[g.Off[u]:g.Off[u+1]] {
			emit(v)
		}
	})
	done()
	sizes := make([]float64, col.NumColors())
	for i, b := range col.Batches {
		sizes[i] = float64(len(b))
	}
	r.set("movesched.order_s", spanMedian(r.tr, "movesched.Permutation"))
	r.set("movesched.color_s", spanMedian(r.tr, "movesched.Greedy"))
	r.set("movesched.colors", float64(col.NumColors()))
	if len(sizes) > 0 {
		r.set("movesched.batch_min", slices.Min(sizes))
	}
	r.set("movesched.batch_median", median(sizes))

	plm := func(threads int) (*core.Result, float64) {
		_, done := r.tr.Begin("core.PLM", 0)
		t0 := time.Now()
		res := core.PLM(g, core.Options{Threads: threads})
		d := time.Since(t0).Seconds()
		done()
		return res, d
	}
	p2, d2 := plm(rmatThreads)
	p1, d1 := plm(1)
	r.set("core.plm_s", d2)
	r.set("core.plm_t1_s", d1)
	r.coreCounts(p2.Levels)
	var err error
	switch {
	case p2.Q != ref.Q || len(p2.Levels) != len(ref.Levels):
		err = fmt.Errorf("core.PLM Q %.12f over %d levels, registry solve Q %.12f over %d", p2.Q, len(p2.Levels), ref.Q, len(ref.Levels))
	case p1.Q != p2.Q || !slices.Equal(p1.Membership, p2.Membership):
		err = errors.New("core.PLM differs between one and two threads")
	}
	r.record("plm probe", err)
}

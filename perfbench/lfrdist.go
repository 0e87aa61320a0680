package main

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"parlouvain/internal/comm"
	"parlouvain/internal/core"
	"parlouvain/internal/gen"
	"parlouvain/internal/graph"
	"parlouvain/internal/obs"
)

// lfr-dist: the paper's distributed engine (core.Parallel) on LFR graphs,
// two ranks of one thread each over a loopback TCP mesh in this process.
const (
	lfrN      = 20000
	lfrMu     = 0.4
	lfrRanks  = 2
	lfrGraphs = 8
)

// lfrInput is one graph, split over the ranks, with the TCP mesh its
// detection calls run on.
type lfrInput struct {
	el    graph.EdgeList
	truth []graph.V
	parts []graph.EdgeList
	trs   []comm.Transport
}

func (in *lfrInput) close() {
	for _, t := range in.trs {
		t.Close()
	}
}

// lfrSetup generates one graph, splits it over the ranks and builds its TCP
// mesh: everything the detection call needs before it starts.
func lfrSetup(seed uint64, tr *Tracer) (*lfrInput, error) {
	root, end := tr.Begin("bench.setup", 0)
	defer end()
	in := &lfrInput{}
	var err error
	_, done := tr.Begin("gen.LFR", root)
	in.el, in.truth, err = gen.LFR(gen.DefaultLFR(lfrN, lfrMu, seed))
	done()
	if err != nil {
		return nil, err
	}
	_, done = tr.Begin("graph.SplitEdges", root)
	in.parts = graph.SplitEdges(in.el, lfrRanks)
	done()
	_, done = tr.Begin("comm.NewTCP", root)
	in.trs, err = tcpMesh(lfrRanks)
	done()
	return in, err
}

// tcpMesh starts a loopback TCP rank group, one transport per rank.
func tcpMesh(ranks int) ([]comm.Transport, error) {
	addrs, err := comm.LocalAddrs(ranks)
	if err != nil {
		return nil, err
	}
	trs := make([]comm.Transport, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			trs[r], errs[r] = comm.NewTCP(comm.TCPConfig{Rank: r, Addrs: addrs})
		}(r)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		for _, t := range trs {
			if t != nil {
				t.Close()
			}
		}
		return nil, err
	}
	return trs, nil
}

// lfrTrace is what a traced call leaves for the layer metrics.
type lfrTrace struct {
	events []obs.Event
	regs   []*obs.Registry
}

// lfrSolve runs one detection call on every rank of the graph's mesh.
func lfrSolve(in *lfrInput, heap *heapSampler, tr *Tracer) (call, *core.Result, *lfrTrace, error) {
	opts := make([]core.Options, lfrRanks)
	var out *lfrTrace
	var rec *obs.Recorder
	var base time.Time
	if tr != nil {
		rec = obs.NewRecorder()
		base = time.Now().Add(-time.Duration(rec.Now()) * time.Microsecond)
		out = &lfrTrace{regs: make([]*obs.Registry, lfrRanks)}
	}
	for r := range opts {
		opts[r] = core.Options{CollectLevels: true, Recorder: rec}
		if out != nil {
			out.regs[r] = obs.NewRegistry()
			opts[r].Metrics = out.regs[r]
		}
	}
	results := make([]*core.Result, lfrRanks)
	errs := make([]error, lfrRanks)
	spanIDs := make([]int, lfrRanks)

	runtime.GC()
	heap.Take()
	allocs0 := readUint(heapAllocs)
	root, end := tr.Begin("bench.solve", 0)
	start := time.Now()
	var wg sync.WaitGroup
	for r := 0; r < lfrRanks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			id, done := tr.Begin("core.Parallel", root)
			results[r], errs[r] = core.Parallel(comm.New(in.trs[r]), in.parts[r], len(in.truth), opts[r])
			done()
			spanIDs[r] = id
			if errs[r] != nil {
				// Unblock the peer parked in a collective.
				in.close()
			}
		}(r)
	}
	wg.Wait()
	c := call{wall: time.Since(start)}
	end()
	c.allocMB = float64(readUint(heapAllocs)-allocs0) / (1 << 20)
	c.heapMB = heap.Take()
	if err := errors.Join(errs...); err != nil {
		return c, nil, nil, err
	}
	if out != nil {
		out.events = rec.Events()
		names := map[string]string{}
		for _, p := range corePhases {
			names[p.event] = "core." + p.metric
		}
		for r, id := range spanIDs {
			eventSpans(tr, id, r, base, out.events, names)
		}
	}
	return c, results[0], out, nil
}

// sameSolve requires a repeat solve to reproduce the reference exactly:
// Q, level count, bytes on the wire and the partition.
func sameSolve(ref, got *core.Result) error {
	switch {
	case got.Q != ref.Q:
		return fmt.Errorf("Q %.12f differs from reference %.12f", got.Q, ref.Q)
	case len(got.Levels) != len(ref.Levels):
		return fmt.Errorf("%d levels, reference has %d", len(got.Levels), len(ref.Levels))
	case got.CommBytes != ref.CommBytes:
		return fmt.Errorf("%d bytes on the wire, reference sent %d", got.CommBytes, ref.CommBytes)
	case !slices.Equal(got.Membership, ref.Membership):
		return errors.New("membership differs from reference")
	}
	return nil
}

// lfrRefs holds each graph's first result, which every later call on the
// graph must reproduce, and its quality scores.
type lfrRefs struct {
	res    []*core.Result
	q, nmi []float64
}

// check holds a call to its graph's first result. The first call on a
// graph is checked against the input instead: membership, recomputed Q
// and NMI against the planted truth.
func (refs *lfrRefs) check(r *run, g int, in *lfrInput, res *core.Result) error {
	if ref := refs.res[g]; ref != nil {
		return sameSolve(ref, res)
	}
	refs.res[g] = res
	_, done := r.tr.Begin("graph.Build", 0)
	built := graph.Build(in.el, len(in.truth))
	done()
	if err := checkMembership(res.Membership, len(in.truth)); err != nil {
		return err
	}
	if err := checkQ(built, res.Membership, res.Q); err != nil {
		return err
	}
	s, err := nmi(res.Membership, in.truth)
	refs.q, refs.nmi = append(refs.q, res.Q), append(refs.nmi, s)
	return err
}

func runLFRDist(r *run) error {
	heap := startHeapSampler()
	defer heap.Stop()
	refs := &lfrRefs{res: make([]*core.Result, lfrGraphs)}
	var traces []*lfrTrace // parallel to calls
	setup := func(g int) (*lfrInput, error) { return lfrSetup(derive(r.seed, uint64(g)), r.tr) }
	solve := func(g int, in *lfrInput, tr *Tracer) (call, error) {
		c, res, t, err := lfrSolve(in, heap, tr)
		if err == nil {
			err = refs.check(r, g, in, res)
		}
		traces = append(traces, t)
		return c, err
	}
	calls, err := solveLoop(r, lfrGraphs, setup, solve, (*lfrInput).close)
	if err != nil {
		return err
	}

	if !r.trace {
		// One traced call outside the timed window: tracing must leave
		// the result, its level count and its traffic unchanged.
		in, err := setup(0)
		if err == nil {
			_, err = solve(0, in, newTracer())
			in.close()
		}
		r.record("traced solve", err)
		r.set("modularity", mean(refs.q))
		r.set("nmi", mean(refs.nmi))
		callMetrics(r, calls, lfrGraphs)
		return nil
	}
	r.set("gen.generate_s", spanMedian(r.tr, "gen.LFR"))
	r.set("graph.split_s", spanMedian(r.tr, "graph.SplitEdges"))
	r.set("comm.mesh_s", spanMedian(r.tr, "comm.NewTCP"))
	r.set("graph.build_s", spanMedian(r.tr, "graph.Build"))
	m := traceMetrics(r, calls)
	t := traces[m]
	res := refs.res[calls[m].graph]
	r.corePhases(t.events, calls[m].wall)
	r.coreCounts(res.Levels)
	r.edgetable(t.events)
	r.set("wire.bytes_sent", float64(res.CommBytes))
	r.commRegistry(t.regs)
	r.selfTimes("bench.solve")
	return nil
}

// corePhases reports the four phase totals (max over ranks) of one solve
// and the wall clock they leave unattributed.
func (r *run) corePhases(events []obs.Event, wall time.Duration) {
	names := make([]string, len(corePhases))
	for i, p := range corePhases {
		names[i] = p.event
	}
	ph := phaseMax(events, names...)
	var sum time.Duration
	for _, p := range corePhases {
		r.set("core."+p.metric+"_s", ph[p.event].Seconds())
		sum += ph[p.event]
	}
	r.set("core.unattributed_s", (wall - sum).Seconds())
}

// coreCounts reports the level, inner-iteration and move counts.
func (r *run) coreCounts(levels []core.Level) {
	iters, moves := 0, 0
	for _, lv := range levels {
		iters += lv.InnerIterations
		for _, m := range lv.MovesPerIter {
			moves += m
		}
	}
	r.set("core.levels", float64(len(levels)))
	r.set("core.inner_iters", float64(iters))
	r.set("core.moves", float64(moves))
}

// edgetable reports the In_Table occupancy from the engine's level events:
// mean load factor and probe length over levels and ranks, total growths.
func (r *run) edgetable(events []obs.Event) {
	var lf, probe []float64
	growths := 0.0
	for _, e := range events {
		if e.Name != "level" {
			continue
		}
		lf = append(lf, e.Fields["in_load_factor"])
		probe = append(probe, e.Fields["in_mean_probe"])
		growths += e.Fields["in_growths"]
	}
	r.set("edgetable.in_load_factor", mean(lf))
	r.set("edgetable.in_mean_probe", mean(probe))
	r.set("edgetable.in_growths", growths)
}

// commRegistry reports the transport instruments of one traced solve:
// rank 0's rounds, the slowest rank's exchange and chunk-wait time, and the
// group's merge/transfer overlap.
func (r *run) commRegistry(regs []*obs.Registry) {
	var exch, wait, overlap, transfer float64
	for _, reg := range regs {
		exch = max(exch, reg.Histogram("comm_exchange_seconds", obs.LatencyBuckets).Snapshot().Sum)
		wait = max(wait, reg.Histogram("comm_stream_chunk_wait_seconds", obs.LatencyBuckets).Snapshot().Sum)
		overlap += reg.Histogram("comm_overlap_seconds", obs.LatencyBuckets).Snapshot().Sum
		transfer += reg.Histogram("comm_stream_transfer_seconds", obs.LatencyBuckets).Snapshot().Sum
	}
	r.set("comm.rounds", float64(regs[0].Counter("comm_rounds_total").Value()))
	r.set("comm.exchange_s", exch)
	r.set("comm.chunk_wait_s", wait)
	if transfer > 0 {
		r.set("comm.overlap_frac", overlap/transfer)
	}
}

// spanMedian returns the median duration in seconds of the spans named name.
func spanMedian(tr *Tracer, name string) float64 {
	var ds []float64
	for _, s := range tr.Spans() {
		if s.Name == name {
			ds = append(ds, s.Dur().Seconds())
		}
	}
	return median(ds)
}

package core

import (
	"fmt"
	"time"

	"parlouvain/internal/graph"
	"parlouvain/internal/hashfn"
	"parlouvain/internal/metrics"
	"parlouvain/internal/perf"
)

// Sequential runs the original Louvain algorithm (Algorithm 1) on g and
// returns the full hierarchy. It is the correctness and quality baseline
// every parallel experiment compares against.
func Sequential(g *graph.Graph, opt Options) *Result {
	opt = opt.withDefaults()
	start := time.Now()
	res := &Result{
		NumVertices: g.N,
		NumEdges:    int64(g.NumEdges()),
		Breakdown:   perf.NewBreakdown(),
	}
	// membership[orig] = vertex id in the current working graph.
	membership := make([]graph.V, g.N)
	for i := range membership {
		membership[i] = graph.V(i)
	}
	res.Membership = membership
	if g.N == 0 || g.M == 0 {
		res.Duration = time.Since(start)
		return res
	}

	wg := g
	qPrev := -1.0
	for level := 0; level < opt.MaxLevels; level++ {
		if opt.canceled() != nil {
			break // keep the best hierarchy reached so far
		}
		comm, movesPerIter := sweepLevel(wg, opt, level)
		q := metrics.Modularity(wg, comm)

		// Compact community labels to 0..C-1.
		compact := make(map[graph.V]graph.V, wg.N/4+1)
		for _, c := range comm {
			if _, ok := compact[c]; !ok {
				compact[c] = graph.V(len(compact))
			}
		}
		numComms := len(compact)
		for orig := range membership {
			membership[orig] = compact[comm[membership[orig]]]
		}

		lv := Level{
			Q:               q,
			Vertices:        wg.N,
			Communities:     numComms,
			InnerIterations: len(movesPerIter),
			MovesPerIter:    movesPerIter,
		}
		if opt.CollectLevels {
			lv.Membership = append([]graph.V(nil), membership...)
		}
		res.Levels = append(res.Levels, lv)
		res.Q = q
		if level == 0 {
			res.FirstLevel = time.Since(start)
		}

		if numComms == wg.N || q-qPrev < opt.MinGain {
			break
		}
		qPrev = q
		wg = condense(wg, comm, compact, numComms)
	}
	res.Duration = time.Since(start)
	return res
}

// sweepLevel runs the inner loop of Algorithm 1 on one working graph and
// returns the community of each vertex plus the per-iteration move counts.
func sweepLevel(wg *graph.Graph, opt Options, level int) ([]graph.V, []int) {
	n := wg.N
	comm := make([]graph.V, n)
	tot := make([]float64, n)
	for u := 0; u < n; u++ {
		comm[u] = graph.V(u)
		tot[u] = wg.Deg[u]
	}
	if level == 0 && opt.Warm != nil {
		if len(opt.Warm) != n {
			panic(fmt.Sprintf("core: warm-start assignment covers %d of %d vertices", len(opt.Warm), n))
		}
		for u := 0; u < n; u++ {
			tot[u] = 0
		}
		for u := 0; u < n; u++ {
			c := opt.Warm[u]
			if int(c) >= n {
				panic(fmt.Sprintf("core: warm-start label %d outside id space %d", c, n))
			}
			comm[u] = c
			tot[c] += wg.Deg[u]
		}
	}
	order := levelOrder(wg, opt, level)

	// Scratch for neighbor-community weights (see accumulate).
	scr := newNbrScratch(n)
	w2c := scr.w2c

	var movesPerIter []int
	for iter := 1; iter <= opt.MaxInner; iter++ {
		moved := 0
		for _, ui := range order {
			u := graph.V(ui)
			ku := wg.Deg[u]
			if ku == 0 {
				continue
			}
			c0 := comm[u]
			// Remove u from its community (isolated-vertex premise of
			// Equation 4).
			tot[c0] -= ku

			// Accumulate w_{u->c} over neighbor communities.
			touched := accumulate(wg, u, comm, &scr)

			stay := metrics.DeltaQ(w2c[c0], tot[c0], ku, wg.M)
			bestC, bestGain := c0, stay
			for _, c := range touched {
				if c == c0 {
					continue
				}
				g := metrics.DeltaQ(w2c[c], tot[c], ku, wg.M)
				if g > bestGain || (g == bestGain && c < bestC) {
					bestC, bestGain = c, g
				}
			}
			scr.clear()

			if bestC != c0 && bestGain-stay > minMoveGain {
				comm[u] = bestC
				tot[bestC] += ku
				moved++
			} else {
				tot[c0] += ku
			}
		}
		movesPerIter = append(movesPerIter, moved)
		if opt.TraceMoves != nil {
			opt.TraceMoves(level, iter, moved, n)
		}
		if moved == 0 {
			break
		}
	}
	return comm, movesPerIter
}

// condense builds the next-level supergraph (Algorithm 1 lines 24-26):
// vertices are the compacted communities, edge weights are summed, and
// intra-community weight becomes self-loops.
func condense(wg *graph.Graph, comm []graph.V, compact map[graph.V]graph.V, numComms int) *graph.Graph {
	agg := make(map[uint64]float64, wg.N)
	selfW := make([]float64, numComms)
	for u := 0; u < wg.N; u++ {
		cu := compact[comm[u]]
		selfW[cu] += wg.SelfW[u]
		for i := wg.Off[u]; i < wg.Off[u+1]; i++ {
			v := wg.Nbr[i]
			if v < graph.V(u) {
				continue // count each undirected edge once
			}
			cv := compact[comm[v]]
			if cu == cv {
				selfW[cu] += wg.NbrW[i]
				continue
			}
			a, b := cu, cv
			if a > b {
				a, b = b, a
			}
			agg[hashfn.Pack32(a, b)] += wg.NbrW[i]
		}
	}
	el := make(graph.EdgeList, 0, len(agg)+numComms)
	for key, w := range agg {
		a, b := hashfn.Unpack32(key)
		el = append(el, graph.Edge{U: a, V: b, W: w})
	}
	for c, w := range selfW {
		if w != 0 {
			el = append(el, graph.Edge{U: graph.V(c), V: graph.V(c), W: w})
		}
	}
	return graph.Build(el, numComms)
}

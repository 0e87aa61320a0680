package core

import (
	"time"

	"parlouvain/internal/graph"
	"parlouvain/internal/metrics"
	"parlouvain/internal/movesched"
	"parlouvain/internal/perf"
)

// LNS runs a Browet-style local neighbourhood search (Browet, Absil & Van
// Dooren 2013): instead of full round-robin sweeps, an active queue seeded
// with every vertex is drained greedily. Popping a vertex evaluates the
// standard Louvain gain over its neighbour communities; an accepted move
// re-activates exactly the vertices whose best choice could have changed —
// the mover's neighbourhood. Settled regions of the graph are never
// re-scanned, so each level does work proportional to the churn, not to n.
// When the queue drains the partition is aggregated (Algorithm 1's
// condense) and the search repeats on the supergraph.
//
// Moves require strictly positive gain and aggregation preserves
// modularity, so the per-level Q trajectory is monotone non-decreasing.
func LNS(g *graph.Graph, opt Options) *Result {
	opt = opt.withDefaults()
	start := time.Now()
	res := &Result{
		NumVertices: g.N,
		NumEdges:    int64(g.NumEdges()),
		Breakdown:   perf.NewBreakdown(),
	}
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
		var comm []graph.V
		var pops, moved int
		if opt.Threads > 1 {
			// Color-batched parallel move phase on the shared scheduler;
			// scans stand in for queue pops in the work accounting.
			var movesPerIter []int
			comm, movesPerIter, pops = plmLevel(wg, opt, level)
			for _, m := range movesPerIter {
				moved += m
			}
		} else {
			comm, pops, moved = lnsLevel(wg, opt, level)
		}
		q := metrics.Modularity(wg, comm)

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
			Q:           q,
			Vertices:    wg.N,
			Communities: numComms,
			// The queue has no sweep structure; report the equivalent
			// full-graph passes the pops amount to, and the moves made.
			InnerIterations: (pops + wg.N - 1) / wg.N,
			MovesPerIter:    []int{moved},
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

// lnsLevel drains one level's active queue and returns the community of
// each working-graph vertex plus the pop and accepted-move counts.
func lnsLevel(wg *graph.Graph, opt Options, level int) (comm []graph.V, pops, moved int) {
	n := wg.N
	comm = make([]graph.V, n)
	tot := make([]float64, n)
	for u := 0; u < n; u++ {
		comm[u] = graph.V(u)
		tot[u] = wg.Deg[u]
	}
	queue := movesched.NewQueue(n)
	for _, ui := range levelOrder(wg, opt, level) {
		queue.Push(ui)
	}
	// MaxInner bounds the work like a sweep cap would: at most MaxInner
	// full-graph-equivalents of pops per level.
	maxPops := opt.MaxInner * n

	scr := newNbrScratch(n)
	w2c := scr.w2c
	for pops < maxPops {
		ui, ok := queue.Pop()
		if !ok {
			break
		}
		u := graph.V(ui)
		pops++

		ku := wg.Deg[u]
		if ku == 0 {
			continue
		}
		c0 := comm[u]
		tot[c0] -= ku

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
			// The local neighbourhood: re-examine the vertices whose best
			// community may have changed.
			wg.Neighbors(u, func(v graph.V, w float64) bool {
				if v != u {
					queue.Push(uint32(v))
				}
				return true
			})
		} else {
			tot[c0] += ku
		}
	}
	return comm, pops, moved
}

package core

import (
	"fmt"
	"time"

	"parlouvain/internal/graph"
	"parlouvain/internal/metrics"
	"parlouvain/internal/movesched"
	"parlouvain/internal/par"
	"parlouvain/internal/perf"
)

// PLM runs the shared-memory parallel Louvain move phase in the style of
// Staudt & Meyerhenke's NetworKit PLM, scheduled by internal/movesched: each
// level greedily colors the working graph, then sweeps the color batches —
// all moves of a batch are *decided* concurrently against frozen community
// state (same-color vertices are never adjacent, so no decision invalidates
// another's neighbor-community weights) and *applied* serially in schedule
// order, each re-checked against the live community totals so only
// strictly-improving moves land. An active-vertex set prunes the sweeps: a
// vertex is re-examined only when it or a neighbor moved in the previous
// sweep (Lu & Halappanavar 2014).
//
// Because decisions read only frozen state and application order is fixed
// by the schedule, the result is bit-identical for every Options.Threads
// value — the thread count changes wall clock, never the partition — and
// every applied move has positive re-checked gain, so the per-level Q
// trajectory is monotone non-decreasing.
func PLM(g *graph.Graph, opt Options) *Result {
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
		comm, movesPerIter, _ := plmLevel(wg, opt, level)
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

// levelOrder builds one level's vertex visit order from Options.Order: the
// default ordering reproduces the historical behavior exactly (natural
// order, or the seeded per-level shuffle when Seed is set), the explicit
// orderings delegate to movesched.Permutation over the weighted degrees.
func levelOrder(wg *graph.Graph, opt Options, level int) []uint32 {
	seed := opt.Seed
	if seed != 0 {
		seed += uint64(level)
	} else if opt.Order == movesched.OrderShuffle {
		seed = uint64(level)
	}
	return movesched.Permutation(wg.N, opt.Order, wg.Deg, seed)
}

// plmLevel runs one level's color-batched move phase and returns the
// community of each working-graph vertex, the per-sweep move counts, and
// the number of vertex scans the pruned sweeps performed (the LNS "pops"
// equivalent).
func plmLevel(wg *graph.Graph, opt Options, level int) (comm []graph.V, movesPerIter []int, scanned int) {
	n := wg.N
	comm = make([]graph.V, n)
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
	sched := movesched.Greedy(n, order, func(u uint32, emit func(v uint32)) {
		for _, v := range wg.Nbr[wg.Off[u]:wg.Off[u+1]] {
			emit(v)
		}
	})

	threads := opt.Threads
	if threads > n {
		threads = n
	}
	if threads < 1 {
		threads = 1
	}
	// Per-thread scratch for the decide phase: the neighbor-community scan
	// state plus the thread's scan count.
	type scratch struct {
		nbrScratch
		scans int
	}
	scr := make([]scratch, threads)
	for t := range scr {
		scr[t].nbrScratch = newNbrScratch(n)
	}
	// Decisions, indexed by vertex: the chosen community plus the
	// neighbor-community weights the apply-phase gain re-check needs.
	bestTo := make([]graph.V, n)
	wBest := make([]float64, n)
	wStay := make([]float64, n)

	active := movesched.NewActiveSet(n, true)
	for iter := 1; iter <= opt.MaxInner; iter++ {
		moved := 0
		sweepActive := active.Count()
		for _, batch := range sched.Batches {
			// Decide: every vertex of the batch scans its neighborhood
			// against state frozen at batch start. No writes to comm/tot
			// happen until the batch's serial apply, so the outcome is
			// independent of how the batch is chunked across threads.
			par.ForChunked(len(batch), threads, 256, func(t, lo, hi int) {
				s := &scr[t]
				for i := lo; i < hi; i++ {
					u := batch[i]
					c0 := comm[u]
					bestTo[u] = c0
					ku := wg.Deg[u]
					if ku == 0 || !active.Active(u) {
						continue
					}
					s.scans++
					touched := accumulate(wg, graph.V(u), comm, &s.nbrScratch)
					w2c := s.w2c
					stay := metrics.DeltaQ(w2c[c0], tot[c0]-ku, ku, wg.M)
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
					bestTo[u] = bestC
					wStay[u] = w2c[c0]
					wBest[u] = w2c[bestC]
					s.clear()
				}
			})
			// Apply: serial, in schedule order. Same-color vertices are
			// never adjacent, so the decided neighbor-community weights are
			// still exact here; only the community totals may have drifted
			// (same-batch movers entering or leaving c0/bestC), so the gain
			// is re-checked against the live totals before the move lands —
			// every applied move strictly improves Q.
			for _, u := range batch {
				bestC := bestTo[u]
				c0 := comm[u]
				if bestC == c0 {
					continue
				}
				ku := wg.Deg[u]
				stay := metrics.DeltaQ(wStay[u], tot[c0]-ku, ku, wg.M)
				gain := metrics.DeltaQ(wBest[u], tot[bestC], ku, wg.M)
				if gain-stay > minMoveGain {
					comm[u] = bestC
					tot[c0] -= ku
					tot[bestC] += ku
					moved++
					// The pruning rule: the mover and its neighborhood are
					// the only vertices whose best choice may have changed.
					active.MarkNext(u)
					for _, v := range wg.Nbr[wg.Off[u]:wg.Off[u+1]] {
						active.MarkNext(v)
					}
				}
			}
		}
		movesPerIter = append(movesPerIter, moved)
		if opt.TraceMoves != nil {
			opt.TraceMoves(level, iter, moved, sweepActive)
		}
		if moved == 0 {
			break
		}
		if active.Flip() == 0 {
			break
		}
	}
	for t := range scr {
		scanned += scr[t].scans
	}
	return comm, movesPerIter, scanned
}

// moveLevel dispatches one level's move phase for the engines that took the
// classic sequential sweep before movesched existed (Leiden, LNS): at
// Threads <= 1 the original sweep runs — bit-identical to the pre-movesched
// behavior — and beyond that the color-batched parallel sweep takes over.
func moveLevel(wg *graph.Graph, opt Options, level int) ([]graph.V, []int) {
	if opt.Threads > 1 {
		comm, moves, _ := plmLevel(wg, opt, level)
		return comm, moves
	}
	return sweepLevel(wg, opt, level)
}

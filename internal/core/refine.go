package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"parlouvain/internal/comm"
	"parlouvain/internal/graph"
	"parlouvain/internal/hashfn"
	"parlouvain/internal/obs"
	"parlouvain/internal/par"
	"parlouvain/internal/perf"
	"parlouvain/internal/wire"
)

// The refinement phase (Algorithm 4): the inner iteration loop of one level
// — find the best move per vertex, pick the global gain threshold, apply
// the admitted moves, re-propagate, and measure modularity — with the
// best-state snapshot/rollback that tolerates transient Q dips under stale
// parallel information.

// refineLevel runs the inner loop for one level, starting from modularity
// q0 (measured right after the level's full propagation), and returns the
// level's final modularity and per-iteration move counts. On exit the
// community state is the best one observed: if the loop ended below the
// best snapshot, the level is rolled back and re-propagated.
func (s *engine) refineLevel(level int, vertices uint64, sw *perf.Stopwatch, q0 float64) (float64, []int, error) {
	q := q0
	s.snapshot(q)

	var movesPerIter []int
	sinceBest := 0
	qMilestone := q
	qBestLevel := q
	for iter := 1; iter <= s.opt.MaxInner; iter++ {
		if err := s.opt.canceled(); err != nil {
			return 0, nil, fmt.Errorf("core: %w at level %d iteration %d: %w", ErrCanceled, level, iter, err)
		}
		iterStart := time.Now()
		tsIter := s.now()
		sw.Start(s.bd, perf.PhaseFindBest)
		s.findBest()
		sw.Stop()
		tFind := time.Since(iterStart)
		s.emitPhase(perf.PhaseFindBest, level, iter, tsIter, tFind)

		tUpd := time.Now()
		tsUpd := s.now()
		sw.Start(s.bd, perf.PhaseUpdate)
		dqHat, eps, err := s.threshold(iter, vertices)
		if err != nil {
			return 0, nil, err
		}
		moved, err := s.update(dqHat)
		if err != nil {
			return 0, nil, err
		}
		sw.Stop()
		tUpdate := time.Since(tUpd)
		s.emitPhase(perf.PhaseUpdate, level, iter, tsUpd, tUpdate)

		// Early iterations move most vertices — a full rebuild is
		// cheaper and keeps the Out_Table compact. Once movement
		// drops below ~10% of the active set (every rank sees the
		// same reduced count), incremental delta propagation wins.
		tProp := time.Now()
		tsProp := s.now()
		sw.Start(s.bd, perf.PhasePropagation)
		if moved*10 < vertices {
			err = s.propagateDelta()
		} else {
			err = s.propagate()
		}
		if err != nil {
			return 0, nil, err
		}
		sw.Stop()
		tPropagation := time.Since(tProp)
		s.emitPhase(perf.PhasePropagation, level, iter, tsProp, tPropagation)
		if s.opt.TraceTimings != nil && s.c.Rank() == 0 {
			s.opt.TraceTimings(level, iter, tFind, tUpdate, tPropagation)
		}

		qNew, err := s.computeQ()
		if err != nil {
			return 0, nil, err
		}
		movesPerIter = append(movesPerIter, int(moved))
		if s.opt.TraceMoves != nil && s.c.Rank() == 0 {
			s.opt.TraceMoves(level, iter, int(moved), int(vertices))
		}
		if qNew > qBestLevel {
			qBestLevel = qNew
		}
		if s.rec != nil {
			s.rec.Emit(obs.Event{
				Name: "iteration", Rank: s.part.Rank, Level: level, Iter: iter,
				TS: tsIter, Dur: time.Since(iterStart).Microseconds(),
				Fields: map[string]float64{
					"moved":     float64(moved),
					"active":    float64(vertices),
					"eps":       eps,
					"dq_hat":    dqHat,
					"q":         qNew,
					"q_best":    qBestLevel,
					"find_us":   float64(tFind.Microseconds()),
					"update_us": float64(tUpdate.Microseconds()),
					"prop_us":   float64(tPropagation.Microseconds()),
				},
			})
		}
		if s.mIter != nil {
			s.mIter.Set(float64(iter))
			s.mQ.Set(qNew)
			s.mMoves.Add(moved)
			s.mIters.Inc()
		}
		improved := qNew - q
		q = qNew
		if !s.opt.Naive {
			if qNew > s.bestSnapQ {
				s.snapshot(qNew)
			}
			if qNew > qMilestone+s.opt.ProgressGain {
				qMilestone = qNew
				sinceBest = 0
			} else {
				sinceBest++
			}
		}
		if moved == 0 {
			break
		}
		// Transient Q dips are expected under stale parallel
		// information and recovered via the best-state snapshot; the
		// level ends when the best state stops improving. The naive
		// baseline has no snapshots and stops on lack of immediate
		// improvement, as in Algorithm 4.
		const patience = 5
		if !s.opt.Naive && sinceBest >= patience {
			break
		}
		if s.opt.Naive && improved < s.opt.MinGain {
			break
		}
	}
	if !s.opt.Naive && q < s.bestSnapQ {
		// Roll the level back to its best observed state before
		// reconstructing. All ranks observe the same reduced q and
		// restore the same snapshot iteration.
		s.restore()
		sw.Start(s.bd, perf.PhasePropagation)
		if err := s.propagate(); err != nil {
			return 0, nil, err
		}
		sw.Stop()
		q = s.bestSnapQ
	}
	return q, movesPerIter, nil
}

// findBest is Algorithm 4 lines 4-9: for every owned active vertex, find
// the neighbor community with the highest relative modularity gain m_u
// over staying put. Threads work on disjoint Out_Table shards.
//
// With Options.Prune the sweep recomputes only dirty vertices — those
// whose result inputs (own community, Out_Table row, or the Σtot/member
// counts of any referenced community) changed since their last sweep —
// and clean vertices keep their cached stay/bestGain/bestTo. A vertex's
// result is a pure function of the *set* of its row entries and those
// inputs (the max-gain/min-label fold is order-independent), so the reuse
// is exact: pruned runs are bit-identical to full sweeps, which the
// differential suite pins. A full propagation or level start resets the
// tracking baseline via allDirty.
func (s *engine) findBest() {
	prune := s.dirty != nil && !s.allDirty
	if prune {
		prunedSweeps.Add(1)
	}
	par.For(s.opt.Threads, s.opt.Threads, func(t, lo, hi int) {
		// Baseline: the gain of re-joining the current community.
		o := s.out[t]
		for li := t; li < s.nLoc; li += s.opt.Threads {
			if !s.active[li] || (prune && !s.dirty[li]) {
				continue
			}
			c0 := s.commOf[li]
			e0 := s.comms.get(uint32(c0))
			w0, _ := o.GetPair(uint32(s.part.GlobalID(li)), uint32(c0))
			s.stay[li] = dq(w0-s.self2[li], e0.tot-s.k[li], s.k[li], s.m)
			s.alone[li] = e0.members == 1
			s.bestGain[li] = 0
			s.bestTo[li] = c0
		}
		for i, key := range o.keys {
			u, cc := hashfn.Unpack32(key)
			li := s.part.LocalIndex(u)
			c0 := s.commOf[li]
			if !s.active[li] || graph.V(cc) == c0 || (prune && !s.dirty[li]) {
				continue
			}
			e := s.comms.get(cc)
			// Singleton minimum-label rule (Grappolo-style, the paper's
			// ref [11]): when a vertex alone in its community targets
			// another singleton community with a larger label, suppress
			// the move. Without this, symmetric pairs swap communities
			// forever and never merge.
			if graph.V(cc) > c0 && s.alone[li] && e.members == 1 {
				continue
			}
			g := dq(o.w[i], e.tot, s.k[li], s.m) - s.stay[li]
			if g > s.bestGain[li] || (g == s.bestGain[li] && g > 0 && graph.V(cc) < s.bestTo[li]) {
				s.bestGain[li] = g
				s.bestTo[li] = graph.V(cc)
			}
		}
		if s.dirty != nil {
			// Every vertex of this shard now holds a fresh result.
			for li := t; li < s.nLoc; li += s.opt.Threads {
				s.dirty[li] = false
			}
		}
	})
	s.allDirty = false
}

// prunedSweeps counts findBest invocations that ran in pruned (dirty-only)
// mode across all engines — observability for the differential suite, which
// asserts the pruned path was actually exercised rather than every sweep
// degenerating to allDirty.
var prunedSweeps atomic.Uint64

// dq is Equation 4.
func dq(wUToC, sumTot, ku, m float64) float64 {
	return wUToC/m - sumTot*ku/(2*m*m)
}

// snapshot records the current level state as the best seen so far.
func (s *engine) snapshot(q float64) {
	if s.snapComm == nil {
		s.snapComm = make([]graph.V, s.nLoc)
		s.snapTot = make([]float64, s.nLoc)
		s.snapMembers = make([]int64, s.nLoc)
	}
	copy(s.snapComm, s.commOf)
	copy(s.snapTot, s.totOwn)
	copy(s.snapMembers, s.memOwn)
	s.bestSnapQ = q
}

// restore rolls the level back to the snapshotted best state.
func (s *engine) restore() {
	copy(s.commOf, s.snapComm)
	copy(s.totOwn, s.snapTot)
	copy(s.memOwn, s.snapMembers)
}

// threshold computes ΔQ̂ for this iteration: build the global gain
// histogram, then pick the cut that admits the top ε(iter) fraction of the
// active vertices (Section IV-B). It also returns the clamped ε for
// telemetry. Naive mode admits every positive gain.
func (s *engine) threshold(iter int, activeTotal uint64) (float64, float64, error) {
	if s.opt.Naive {
		// Still needs a collective so all ranks stay in lockstep on the
		// same number of exchange rounds per iteration.
		if err := s.c.Barrier(); err != nil {
			return 0, 0, err
		}
		return minMoveGain, 1, nil
	}
	var h gainHistogram
	for li := 0; li < s.nLoc; li++ {
		if s.active[li] && s.bestGain[li] > 0 {
			h.add(s.bestGain[li])
		}
	}
	if err := s.c.AllReduceUint64Slice(h.counts[:]); err != nil {
		return 0, 0, err
	}
	eps := s.opt.Epsilon(iter)
	if eps < 0 {
		eps = 0
	}
	if eps > 1 {
		eps = 1
	}
	// The threshold limits *concurrent* movement; it must never block
	// the best moves outright, so the target floors at ~1% of the active
	// vertices (at least one): enough for the post-decay tail to make
	// real progress per iteration while still damping oscillation.
	target := uint64(eps * float64(activeTotal))
	if floor := activeTotal / 100; target < floor {
		target = floor
	}
	if target == 0 {
		target = 1
	}
	return h.threshold(target), eps, nil
}

// update is Algorithm 4 lines 13-15: apply the admitted moves and ship the
// Σtot deltas to the community owners.
func (s *engine) update(dqHat float64) (uint64, error) {
	p := s.outPlanes()
	var moved uint64
	s.moveLog = s.moveLog[:0]
	for li := 0; li < s.nLoc; li++ {
		if !s.active[li] {
			continue
		}
		g := s.bestGain[li]
		if g < dqHat || g < minMoveGain {
			continue
		}
		newC := s.bestTo[li]
		oldC := s.commOf[li]
		if newC == oldC {
			continue
		}
		s.commOf[li] = newC
		s.moveLog = append(s.moveLog, moveRec{li, oldC})
		if s.dirty != nil {
			// The mover's own stay baseline is now stale.
			s.dirty[li] = true
		}
		moved++
		bo := p.To(s.part.Owner(oldC))
		bo.PutU32(uint32(oldC))
		bo.PutF64(-s.k[li])
		bn := p.To(s.part.Owner(newC))
		bn.PutU32(uint32(newC))
		bn.PutF64(s.k[li])
	}
	in, err := s.exchange(p)
	if err != nil {
		return 0, err
	}
	if err := s.applyTotDeltas(in); err != nil {
		return 0, err
	}
	return s.c.AllReduceUint64(moved, comm.OpSum)
}

// applyTotDeltas decodes a round of (community, ±k) planes, applying the
// Σtot and member-count deltas to this rank's owned communities, and
// releases the round. Shared by update and applyWarm, whose planes have the
// same shape.
func (s *engine) applyTotDeltas(in [][]byte) error {
	var r wire.Reader
	for _, plane := range in {
		r.Reset(plane)
		for r.More() {
			cc := r.U32()
			d := r.F64()
			if err := r.Err(); err != nil {
				return err
			}
			li := s.part.LocalIndex(cc)
			s.totOwn[li] += d
			if d < 0 {
				s.memOwn[li]--
			} else {
				s.memOwn[li]++
			}
		}
	}
	wire.ReleasePlanes(in)
	return nil
}

// computeQ is Algorithm 4 lines 17-25: gather Σin at community owners and
// reduce the global modularity.
func (s *engine) computeQ() (float64, error) {
	for i := range s.inOwn {
		s.inOwn[i] = 0
	}
	p := s.outPlanes()
	for _, o := range s.out {
		for i, key := range o.keys {
			w := o.w[i]
			if w == 0 {
				continue // emptied by delta propagation
			}
			u, cc := hashfn.Unpack32(key)
			li := s.part.LocalIndex(u)
			if !s.active[li] || s.commOf[li] != graph.V(cc) {
				continue
			}
			b := p.To(s.part.Owner(graph.V(cc)))
			b.PutU32(cc)
			b.PutF64(w)
		}
	}
	in, err := s.exchange(p)
	if err != nil {
		return 0, err
	}
	var r wire.Reader
	for _, plane := range in {
		r.Reset(plane)
		for r.More() {
			cc := r.U32()
			w := r.F64()
			if err := r.Err(); err != nil {
				return 0, err
			}
			s.inOwn[s.part.LocalIndex(cc)] += w
		}
	}
	wire.ReleasePlanes(in)
	twoM := 2 * s.m
	var qLocal float64
	for li := 0; li < s.nLoc; li++ {
		if s.totOwn[li] <= 0 {
			continue
		}
		qLocal += s.inOwn[li]/twoM - (s.totOwn[li]/twoM)*(s.totOwn[li]/twoM)
	}
	return s.c.AllReduceFloat64(qLocal, comm.OpSum)
}

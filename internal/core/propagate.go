package core

import (
	"parlouvain/internal/graph"
	"parlouvain/internal/hashfn"
	"parlouvain/internal/par"
	"parlouvain/internal/wire"
)

// State propagation: the phase that rebuilds every rank's Out_Table view of
// its owned vertices' neighbor communities, in two flavors — a full rebuild
// (propagate) and an incremental move-log replay (propagateDelta) — plus
// the Σtot/member pull both feed into Equation 4. run picks the flavor per
// iteration from the global movement count.

// propagate is Algorithm 3 plus the Σtot pull that Equation 4 requires:
// (1) every in-edge (v,u) is translated to ((v, comm[u]), w) and delivered
// to owner(v), rebuilding the Out_Table; (2) the set of communities this
// rank now references is sent to their owners, which reply with Σtot.
func (s *engine) propagate() error {
	// A vertex has at most one Out_Table entry per in-edge, so a shard's
	// in-edge count bounds its entries until delta propagations add more.
	for t, o := range s.out {
		var inEdges int64
		for li := t; li < s.nLoc; li += s.opt.Threads {
			inEdges += s.adjOff[li+1] - s.adjOff[li]
		}
		o.reset(int(inEdges))
	}
	if s.dirty != nil {
		// The full rebuild replaces every Out_Table row and Σtot cache
		// entry, so per-vertex staleness tracking loses its baseline.
		s.allDirty = true
	}
	if err := s.scatter(s.nLoc, s.propBuildFn, s.propMergeFn); err != nil {
		return err
	}
	return s.pullTotals(true)
}

// propagateBuild translates a contiguous range of owned vertices' in-edges
// into ((v, comm), w) records for their owners.
func (s *engine) propagateBuild(_, lo, hi int, w *wire.ChunkWriter) {
	for li := lo; li < hi; li++ {
		if !s.active[li] {
			continue
		}
		cc := uint32(s.commOf[li])
		for e := s.adjOff[li]; e < s.adjOff[li+1]; e++ {
			src := s.adjSrc[e]
			dst := s.part.Owner(src)
			w.To(dst).PutTriple(wire.Triple{A: src, B: cc, W: s.adjW[e]})
			w.Commit(dst)
		}
	}
}

// propagateMerge inserts received (u, c, w) records into the Out_Table
// shard of u — each worker sees every payload but only applies its own
// shard, keeping inserts race-free and deterministic.
func (s *engine) propagateMerge(t int, r *wire.Reader) error {
	for r.More() {
		tr := r.Triple()
		if r.Err() != nil {
			break
		}
		li := s.part.LocalIndex(tr.A)
		if li%s.opt.Threads != t {
			continue
		}
		s.out[t].AddPair(tr.A, tr.B, tr.W)
	}
	return r.Err()
}

// propagateDelta refreshes the Out_Table incrementally after an update:
// only the in-edges of vertices that changed community are rebroadcast,
// moving their contribution from the old community's aggregation to the
// new one. The Σtot cache is re-pulled in full (totals change even for
// communities whose membership this rank did not touch).
func (s *engine) propagateDelta() error {
	for t := range s.newComms {
		s.newComms[t] = s.newComms[t][:0]
	}
	if s.dirty != nil {
		clear(s.changedComms)
	}
	if err := s.scatter(len(s.moveLog), s.deltaBuildFn, s.deltaMergeFn); err != nil {
		return err
	}
	// Extend the Σtot reference set with the newly-seen communities; the
	// existing keys are kept, so no Out_Table rescan is needed.
	for _, ccs := range s.newComms {
		for _, cc := range ccs {
			s.comms.ref(cc)
		}
	}
	if err := s.pullTotals(false); err != nil {
		return err
	}
	if s.dirty != nil {
		s.markChangedComms()
	}
	return nil
}

// markChangedComms marks every vertex whose findBest inputs include a
// community whose Σtot or member count just changed (collected by the
// pullTotals diff): vertices with an Out_Table row entry targeting it, and
// vertices currently assigned to it (their stay baseline and singleton
// rule read its totals). Shard workers only write dirty slots of their own
// li % Threads stripe, as everywhere.
func (s *engine) markChangedComms() {
	if len(s.changedComms) == 0 {
		return
	}
	par.For(s.opt.Threads, s.opt.Threads, func(t, lo, hi int) {
		for _, key := range s.out[t].keys {
			u, cc := hashfn.Unpack32(key)
			if _, ok := s.changedComms[cc]; ok {
				s.dirty[s.part.LocalIndex(u)] = true
			}
		}
		for li := t; li < s.nLoc; li += s.opt.Threads {
			if !s.active[li] {
				continue
			}
			if _, ok := s.changedComms[uint32(s.commOf[li])]; ok {
				s.dirty[li] = true
			}
		}
	})
}

// deltaBuild rebroadcasts the in-edges of a contiguous range of the move
// log as (u, oldC, newC, w) records for the owners of the endpoints.
func (s *engine) deltaBuild(_, lo, hi int, w *wire.ChunkWriter) {
	for _, mv := range s.moveLog[lo:hi] {
		li := mv.li
		oldC, newC := uint32(mv.oldC), uint32(s.commOf[li])
		for e := s.adjOff[li]; e < s.adjOff[li+1]; e++ {
			src := s.adjSrc[e]
			dst := s.part.Owner(src)
			b := w.To(dst)
			b.PutU32(src)
			b.PutU32(oldC)
			b.PutU32(newC)
			b.PutF64(s.adjW[e])
			w.Commit(dst)
		}
	}
}

// deltaMerge moves each received contribution from the old community's
// aggregation to the new one, collecting first-seen communities so the
// Σtot reference set can be extended after the round.
func (s *engine) deltaMerge(t int, r *wire.Reader) error {
	for r.More() {
		u := r.U32()
		oldC := r.U32()
		newC := r.U32()
		w := r.F64()
		if r.Err() != nil {
			break
		}
		li := s.part.LocalIndex(u)
		if li%s.opt.Threads != t {
			continue
		}
		if s.dirty != nil {
			// u's row changed: its cached findBest result is stale.
			s.dirty[li] = true
		}
		s.out[t].AddPair(u, oldC, -w)
		if s.out[t].AddPair(u, newC, w) {
			s.newComms[t] = append(s.newComms[t], newC)
		}
	}
	return r.Err()
}

// pullTotals refreshes the community cache with the Σtot and member count
// of every community that appears in the Out_Table or as an owned vertex's
// current community.
func (s *engine) pullTotals(rescan bool) error {
	// The cache itself deduplicates the request set: every referenced
	// community is entered once, then filled by its owner's response.
	// After a delta propagation the reference set is only extended (by
	// propagateDelta), so the rescan is skipped — only the values are
	// refreshed.
	if rescan {
		s.comms.reset(len(s.comms.keys))
		for _, o := range s.out {
			for _, key := range o.keys {
				_, cc := hashfn.Unpack32(key)
				s.comms.ref(cc)
			}
		}
		for li := 0; li < s.nLoc; li++ {
			if s.active[li] {
				s.comms.ref(uint32(s.commOf[li]))
			}
		}
	}
	req := s.outPlanes()
	for _, key := range s.comms.keys {
		req.To(s.part.Owner(graph.V(key))).PutU32(uint32(key))
	}
	reqs, err := s.exchange(req)
	if err != nil {
		return err
	}
	resp := s.outPlanes()
	var r wire.Reader
	for src, plane := range reqs {
		r.Reset(plane)
		b := resp.To(src)
		for r.More() {
			cc := r.U32()
			if r.Err() != nil {
				return r.Err()
			}
			li := s.part.LocalIndex(cc)
			b.PutU32(cc)
			b.PutF64(s.totOwn[li])
			b.PutF64(float64(s.memOwn[li]))
		}
	}
	wire.ReleasePlanes(reqs)
	resps, err := s.exchange(resp)
	if err != nil {
		return err
	}
	diff := s.dirty != nil && !rescan
	for _, plane := range resps {
		r.Reset(plane)
		for r.More() {
			cc := r.U32()
			tot := r.F64()
			members := r.F64()
			if err := r.Err(); err != nil {
				return err
			}
			// Pruning: record communities whose totals moved since the
			// last pull so markChangedComms can dirty their referrers.
			// (No diffing after a rescan — the full propagation already
			// set allDirty.)
			if s.comms.store(cc, tot, members) && diff {
				s.changedComms[cc] = struct{}{}
			}
		}
	}
	wire.ReleasePlanes(resps)
	return nil
}

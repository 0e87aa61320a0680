package core

import (
	"fmt"

	"parlouvain/internal/comm"
	"parlouvain/internal/edgetable"
	"parlouvain/internal/graph"
	"parlouvain/internal/hashfn"
	"parlouvain/internal/par"
	"parlouvain/internal/wire"
)

// Graph construction: loading the rank's input edges, deriving per-level
// vertex state from the In_Table, collapsing communities into the next
// level's supergraph (Algorithm 5), and gathering the level's assignment
// vector for result reporting.

// loadLocal builds the In_Table from this rank's input edges, each shard
// sized up front for the edges it receives so loading never grows it.
// Self-loop weights are doubled on insertion so that the degree of a
// vertex is simply the sum of its in-entries (DESIGN.md §5); the doubling
// is consistent across levels because graph reconstruction regenerates
// (c,c) entries already doubled.
func (s *engine) loadLocal(local graph.EdgeList) error {
	perShard := make([]int, s.opt.Threads)
	for _, e := range local {
		if !s.part.Owns(e.V) {
			return fmt.Errorf("core: rank %d given edge with dst %d owned by rank %d", s.part.Rank, e.V, s.part.Owner(e.V))
		}
		if int(e.V) >= s.n || int(e.U) >= s.n {
			return fmt.Errorf("core: edge (%d,%d) outside vertex space %d", e.U, e.V, s.n)
		}
		perShard[s.shardOf(s.part.LocalIndex(e.V))]++
	}
	s.in = make([]*edgetable.Table, s.opt.Threads)
	for t := range s.in {
		s.in[t] = edgetable.New(edgetable.Config{
			Hash:       s.opt.Hash,
			Layout:     s.opt.TableLayout,
			LoadFactor: s.opt.LoadFactor,
			Capacity:   perShard[t],
		})
	}
	s.sharded = edgetable.NewSharded(s.in...)
	s.levelStore = s.sharded
	for _, e := range local {
		w := e.W
		if e.U == e.V {
			w *= 2
		}
		li := s.part.LocalIndex(e.V)
		s.in[s.shardOf(li)].AddPair(e.U, e.V, w)
	}
	return nil
}

// levelInit derives per-vertex state from the current In_Table and returns
// the global number of active vertices. It is called at the start of every
// level (the In_Table is the level's graph).
func (s *engine) levelInit() (uint64, error) {
	for i := 0; i < s.nLoc; i++ {
		s.active[i] = false
		s.k[i] = 0
		s.self2[i] = 0
		s.totOwn[i] = 0
		s.commOf[i] = s.part.GlobalID(i)
	}
	if cap(s.adjOff) >= s.nLoc+1 {
		s.adjOff = s.adjOff[:s.nLoc+1]
		for i := range s.adjOff {
			s.adjOff[i] = 0
		}
	} else {
		s.adjOff = make([]int64, s.nLoc+1)
	}
	par.For(s.opt.Threads, s.opt.Threads, func(t, lo, hi int) {
		s.in[t].Range(func(key uint64, w float64) bool {
			src, dst := hashfn.Unpack32(key)
			li := s.part.LocalIndex(dst)
			s.active[li] = true
			s.k[li] += w
			s.adjOff[li+1]++
			if src == dst {
				s.self2[li] = w
			}
			return true
		})
	})
	var localK float64
	var localActive uint64
	for i := 0; i < s.nLoc; i++ {
		s.memOwn[i] = 0
		if s.active[i] {
			localK += s.k[i]
			s.totOwn[i] = s.k[i]
			s.memOwn[i] = 1
			localActive++
		}
	}
	// Build the in-edge CSR (second pass over the In_Table).
	for i := 0; i < s.nLoc; i++ {
		s.adjOff[i+1] += s.adjOff[i]
	}
	total := int(s.adjOff[s.nLoc])
	if cap(s.adjSrc) >= total {
		s.adjSrc = s.adjSrc[:total]
		s.adjW = s.adjW[:total]
	} else {
		s.adjSrc = make([]graph.V, total)
		s.adjW = make([]float64, total)
	}
	fill := make([]int64, s.nLoc)
	par.For(s.opt.Threads, s.opt.Threads, func(t, lo, hi int) {
		s.in[t].Range(func(key uint64, w float64) bool {
			src, dst := hashfn.Unpack32(key)
			li := s.part.LocalIndex(dst)
			p := s.adjOff[li] + fill[li]
			s.adjSrc[p] = src
			s.adjW[p] = w
			fill[li]++
			return true
		})
	})
	// Per-level store selection (Options.Storage): the arrays just built
	// ARE the frozen CSR — each row's entries come from exactly one shard
	// in its insertion order, the same order a hash sweep visits them — so
	// the CSR backend wraps them without copying and the choice is purely
	// which backend answers the level's read queries. The resolution is
	// rank-local (it never changes wire contents), so ranks may differ.
	if resolveStorage(s.opt.Storage, total) == StorageCSR {
		s.levelStore = edgetable.NewCSR(s.part, s.nLoc, s.adjOff, s.adjSrc, s.adjW)
	} else {
		s.levelStore = s.sharded
	}
	if s.dirty != nil {
		// New level: every vertex needs a fresh findBest baseline.
		s.allDirty = true
	}
	twoM, err := s.c.AllReduceFloat64(localK, comm.OpSum)
	if err != nil {
		return 0, err
	}
	s.m = twoM / 2
	return s.c.AllReduceUint64(localActive, comm.OpSum)
}

// reconstruct is Algorithm 5: translate every Out_Table aggregation
// ((u,c),w) into a supergraph in-edge ((comm[u], c), w) at owner(c),
// rebuilding the In_Table for the next level.
func (s *engine) reconstruct() error {
	// The In_Table is reset before the scatter so merge workers can rebuild
	// it while the Out_Table scan is still producing records; the two table
	// families are disjoint, so build (reads out) and merge (writes in)
	// overlap safely.
	for t := 0; t < s.opt.Threads; t++ {
		s.in[t].Reset()
	}
	if err := s.scatter(s.opt.Threads, s.reconBuildFn, s.reconMergeFn); err != nil {
		return err
	}
	if debugBreakReconstruct && s.part.Rank == 0 {
		// Negative-test hook: smuggle phantom edge weight into the rebuilt
		// In_Table so the next level's total weight drifts — the invariant
		// checker must catch this as a reconstruction violation.
		s.in[s.shardOf(0)].AddPair(0, 0, 1)
	}
	return nil
}

// reconstructBuild scans a contiguous range of Out_Table shards, emitting
// every live aggregation as a supergraph in-edge for the owner of its
// destination supervertex.
func (s *engine) reconstructBuild(_, lo, hi int, cw *wire.ChunkWriter) {
	for ti := lo; ti < hi; ti++ {
		o := s.out[ti]
		for i, key := range o.keys {
			w := o.w[i]
			if w == 0 {
				continue // emptied by delta propagation
			}
			u, cc := hashfn.Unpack32(key)
			li := s.part.LocalIndex(u)
			if !s.active[li] {
				continue
			}
			// src supervertex = comm[u]; dst supervertex cc is
			// owned by the destination rank.
			dst := s.part.Owner(graph.V(cc))
			cw.To(dst).PutTriple(wire.Triple{A: uint32(s.commOf[li]), B: cc, W: w})
			cw.Commit(dst)
		}
	}
}

// reconstructMerge inserts received supergraph edges into this worker's
// In_Table shard.
func (s *engine) reconstructMerge(t int, r *wire.Reader) error {
	for r.More() {
		tr := r.Triple()
		if r.Err() != nil {
			break
		}
		li := s.part.LocalIndex(tr.B)
		if li%s.opt.Threads != t {
			continue
		}
		s.in[t].AddPair(tr.A, tr.B, tr.W)
	}
	return r.Err()
}

// gatherAssignments returns the full community vector of the current level
// (every id in [0,n), inactive ids mapping to themselves).
func (s *engine) gatherAssignments() ([]graph.V, error) {
	mine := make([]uint32, s.nLoc)
	for li := 0; li < s.nLoc; li++ {
		mine[li] = uint32(s.commOf[li])
	}
	all, err := s.c.AllGatherUint32(mine)
	if err != nil {
		return nil, err
	}
	full := make([]graph.V, s.n)
	for r, xs := range all {
		for li, v := range xs {
			gid := li*s.c.Size() + r
			if gid < s.n {
				full[gid] = graph.V(v)
			}
		}
	}
	return full, nil
}

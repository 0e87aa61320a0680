// Package graph provides the weighted undirected graph representation,
// the 1D modulo vertex partition (Section IV-A of the paper) and edge-list
// I/O shared by all other packages.
//
// Conventions (documented in DESIGN.md §5):
//   - Graphs are undirected and weighted. Edges are stored internally in
//     both orientations; self-loops are stored once.
//   - The weighted degree k(u) counts a self-loop of weight w twice,
//     following the standard Louvain convention, so that 2m = Σ_u k(u).
package graph

import "slices"

// V is a vertex identifier. All experiments in this repository use graphs
// with fewer than 2^32 vertices; ids are packed in pairs into uint64 hash
// keys (see internal/hashfn).
type V = uint32

// Edge is a weighted undirected edge. U == W(*V) self-loops are allowed.
type Edge struct {
	U, V V
	W    float64
}

// EdgeList is the on-disk and generator-output graph form: an unordered
// multiset of undirected edges. Duplicate {U,V} entries are summed into a
// single weighted edge when a Graph is built.
type EdgeList []Edge

// MaxVertex returns the largest vertex id referenced, or 0 for an empty list.
func (el EdgeList) MaxVertex() V {
	var max V
	for _, e := range el {
		if e.U > max {
			max = e.U
		}
		if e.V > max {
			max = e.V
		}
	}
	return max
}

// NumVertices returns MaxVertex()+1, or 0 for an empty list.
func (el EdgeList) NumVertices() int {
	if len(el) == 0 {
		return 0
	}
	return int(el.MaxVertex()) + 1
}

// TotalWeight returns the sum of single-counted edge weights (the paper's m).
func (el EdgeList) TotalWeight() float64 {
	s := 0.0
	for _, e := range el {
		s += e.W
	}
	return s
}

// Canonicalize returns a copy with every edge oriented U <= V, duplicates
// merged by summing weights, and edges sorted by (U, V). It is used by Build
// and by tests to compare edge sets.
//
// Duplicates merge in input order: the merged weight is the left-to-right
// float sum of the duplicates' weights as they appear in el, so the result
// is a function of the list alone. The sort is stable: a counting sort by U
// (O(m + n) for m edges over n = MaxVertex+1 ids; like Build's arrays, its
// counters span the id space), then a sort of each row by V on packed
// integer keys.
func (el EdgeList) Canonicalize() EdgeList {
	return el.canonicalize(el.NumVertices())
}

// canonicalize is Canonicalize over ids below n.
func (el EdgeList) canonicalize(n int) EdgeList {
	// next[u] starts as the first slot of row u and advances as the row
	// fills, ending at the row's end (the next row's start).
	next := make([]int, n+1)
	for _, e := range el {
		next[min(e.U, e.V)+1]++
	}
	for u := 1; u <= n; u++ {
		next[u] += next[u-1]
	}
	out := make(EdgeList, len(el))
	for _, e := range el {
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		out[next[e.U]] = e
		next[e.U]++
	}
	// Each row is in input order; sort it by V with the position in the
	// row as the tie-break, packed as V<<32 | pos. Positions fit 32 bits: a
	// row of 2^32 edges would need a 64 GiB list.
	var keys []uint64
	var row0 EdgeList
	lo := 0
	for u := 0; u < n; u++ {
		row := out[lo:next[u]]
		lo = next[u]
		if len(row) < 2 {
			continue
		}
		keys = keys[:0]
		for i, e := range row {
			keys = append(keys, uint64(e.V)<<32|uint64(i))
		}
		slices.Sort(keys)
		row0 = append(row0[:0], row...)
		for i, k := range keys {
			row[i] = row0[uint32(k)]
		}
	}
	merged := out[:0]
	for _, e := range out {
		if k := len(merged); k > 0 && merged[k-1].U == e.U && merged[k-1].V == e.V {
			merged[k-1].W += e.W
			continue
		}
		merged = append(merged, e)
	}
	return merged
}

// Graph is a compressed sparse row view of an undirected weighted graph.
// Neighbor lists exclude self-loops, which are tracked separately in SelfW.
type Graph struct {
	N int // number of vertices (ids 0..N-1)

	// CSR adjacency: neighbors of u are Nbr[Off[u]:Off[u+1]] with weights
	// NbrW at the same positions. Every undirected edge {u,v}, u != v,
	// appears in both lists.
	Off  []int64
	Nbr  []V
	NbrW []float64

	// SelfW[u] is the single-counted weight of u's self-loop (0 if none).
	SelfW []float64

	// Deg[u] is the weighted degree k(u): sum of incident edge weights
	// with self-loops counted twice.
	Deg []float64

	// M is the total single-counted edge weight (the modularity
	// normalizer m in Equations 3 and 4). Sum(Deg) == 2*M.
	M float64
}

// Build constructs a Graph from an edge list. n is the number of vertices;
// pass 0 to infer it as MaxVertex()+1. Duplicate edges are merged by weight,
// summed in input order (see Canonicalize).
func Build(el EdgeList, n int) *Graph {
	if n <= 0 {
		n = el.NumVertices()
	}
	can := el.canonicalize(n)
	g := &Graph{
		N:     n,
		Off:   make([]int64, n+1),
		SelfW: make([]float64, n),
		Deg:   make([]float64, n),
	}
	// Count directed entries (both orientations, excluding self-loops).
	for _, e := range can {
		if e.U == e.V {
			continue
		}
		g.Off[e.U+1]++
		g.Off[e.V+1]++
	}
	for i := 0; i < n; i++ {
		g.Off[i+1] += g.Off[i]
	}
	g.Nbr = make([]V, g.Off[n])
	g.NbrW = make([]float64, g.Off[n])
	fill := make([]int64, n)
	for _, e := range can {
		g.M += e.W
		if e.U == e.V {
			g.SelfW[e.U] += e.W
			g.Deg[e.U] += 2 * e.W
			continue
		}
		pu := g.Off[e.U] + fill[e.U]
		g.Nbr[pu], g.NbrW[pu] = e.V, e.W
		fill[e.U]++
		pv := g.Off[e.V] + fill[e.V]
		g.Nbr[pv], g.NbrW[pv] = e.U, e.W
		fill[e.V]++
		g.Deg[e.U] += e.W
		g.Deg[e.V] += e.W
	}
	return g
}

// NumEdges returns the number of distinct undirected edges including
// self-loops.
func (g *Graph) NumEdges() int {
	n := len(g.Nbr) / 2
	for _, w := range g.SelfW {
		if w != 0 {
			n++
		}
	}
	return n
}

// Neighbors calls fn for every neighbor v of u (excluding self-loops) with
// the edge weight. Iteration stops early if fn returns false.
func (g *Graph) Neighbors(u V, fn func(v V, w float64) bool) {
	for i := g.Off[u]; i < g.Off[u+1]; i++ {
		if !fn(g.Nbr[i], g.NbrW[i]) {
			return
		}
	}
}

// Degree returns the unweighted neighbor count of u, excluding self-loops.
func (g *Graph) Degree(u V) int {
	return int(g.Off[u+1] - g.Off[u])
}

// EdgeList converts the graph back to a canonical single-orientation list,
// including self-loops.
func (g *Graph) EdgeList() EdgeList {
	out := make(EdgeList, 0, len(g.Nbr)/2+g.N/8)
	for u := 0; u < g.N; u++ {
		if g.SelfW[u] != 0 {
			out = append(out, Edge{V(u), V(u), g.SelfW[u]})
		}
		for i := g.Off[u]; i < g.Off[u+1]; i++ {
			if v := g.Nbr[i]; V(u) <= v {
				out = append(out, Edge{V(u), v, g.NbrW[i]})
			}
		}
	}
	return out
}

package metrics

import (
	"fmt"
	"math"
	"slices"

	"parlouvain/internal/graph"
)

// Contingency is the sparse co-occurrence table of two partitions of the
// same element set, the shared substrate of every Table III metric.
type Contingency struct {
	N     int            // number of elements
	Cells map[uint64]int // packed (rowIdx, colIdx) -> count
	RowSz []int          // community sizes of partition A
	ColSz []int          // community sizes of partition B
}

// NewContingency builds the table. The two assignments must have equal
// length; labels are arbitrary and renumbered internally.
func NewContingency(a, b []graph.V) (*Contingency, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("metrics: partition lengths differ: %d vs %d", len(a), len(b))
	}
	rowIdx := map[graph.V]int{}
	colIdx := map[graph.V]int{}
	c := &Contingency{N: len(a), Cells: map[uint64]int{}}
	for i := range a {
		ri, ok := rowIdx[a[i]]
		if !ok {
			ri = len(rowIdx)
			rowIdx[a[i]] = ri
			c.RowSz = append(c.RowSz, 0)
		}
		ci, ok := colIdx[b[i]]
		if !ok {
			ci = len(colIdx)
			colIdx[b[i]] = ci
			c.ColSz = append(c.ColSz, 0)
		}
		c.RowSz[ri]++
		c.ColSz[ci]++
		c.Cells[uint64(ri)<<32|uint64(ci)]++
	}
	return c, nil
}

func choose2(n int) float64 {
	return float64(n) * float64(n-1) / 2
}

// pairCounts returns (S11, SA, SB, T): pairs together in both, together in
// A, together in B, and total pairs.
func (c *Contingency) pairCounts() (s11, sa, sb, total float64) {
	for _, n := range c.Cells {
		s11 += choose2(n)
	}
	for _, n := range c.RowSz {
		sa += choose2(n)
	}
	for _, n := range c.ColSz {
		sb += choose2(n)
	}
	total = choose2(c.N)
	return
}

// Rand returns the Rand index: the fraction of element pairs on which the
// two partitions agree. 1 means identical.
func (c *Contingency) Rand() float64 {
	s11, sa, sb, total := c.pairCounts()
	if total == 0 {
		return 1
	}
	a00 := total - sa - sb + s11
	return (s11 + a00) / total
}

// AdjustedRand returns the chance-corrected Rand index (ARI). 1 means
// identical; independent partitions score near 0.
func (c *Contingency) AdjustedRand() float64 {
	s11, sa, sb, total := c.pairCounts()
	if total == 0 {
		return 1
	}
	expected := sa * sb / total
	maxIdx := (sa + sb) / 2
	if maxIdx == expected {
		return 1 // both partitions all-singletons or all-one-cluster
	}
	return (s11 - expected) / (maxIdx - expected)
}

// Jaccard returns the Jaccard index over co-clustered pairs. 1 means
// identical.
func (c *Contingency) Jaccard() float64 {
	s11, sa, sb, _ := c.pairCounts()
	den := sa + sb - s11
	if den == 0 {
		return 1 // no co-clustered pairs in either: vacuously identical
	}
	return s11 / den
}

// NMI returns the normalized mutual information with the arithmetic-mean
// normalization 2I/(H(A)+H(B)) used by the ParallelComMetric code the
// paper references. 1 means identical; 0 independent.
func (c *Contingency) NMI() float64 {
	n := float64(c.N)
	if n == 0 {
		return 1
	}
	ha, hb := 0.0, 0.0
	for _, sz := range c.RowSz {
		ha += entropyTerm(float64(sz) / n)
	}
	for _, sz := range c.ColSz {
		hb += entropyTerm(float64(sz) / n)
	}
	if ha+hb == 0 {
		return 1 // both trivial single-cluster partitions
	}
	// Reduce in sorted cell order: map iteration order is randomized, and
	// the same pair of partitions must always give the same NMI bits. The
	// three logs are taken separately, not of the quotient, so that for
	// identical partitions each cell's term equals its entropyTerm bit for
	// bit and the sums agree in order: mi == ha == hb and NMI is exactly 1.
	keys := make([]uint64, 0, len(c.Cells))
	for key := range c.Cells {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	mi := 0.0
	for _, key := range keys {
		ri := int(key >> 32)
		ci := int(uint32(key))
		pij := float64(c.Cells[key]) / n
		pi := float64(c.RowSz[ri]) / n
		pj := float64(c.ColSz[ci]) / n
		mi += pij * (math.Log(pij) - math.Log(pi) - math.Log(pj))
	}
	return 2 * mi / (ha + hb)
}

// VanDongen returns the normalized Van Dongen distance: 0 for identical
// partitions, approaching 1 for maximally different ones.
func (c *Contingency) VanDongen() float64 {
	if c.N == 0 {
		return 0
	}
	rowMax := make([]int, len(c.RowSz))
	colMax := make([]int, len(c.ColSz))
	for key, cnt := range c.Cells {
		ri := int(key >> 32)
		ci := int(uint32(key))
		if cnt > rowMax[ri] {
			rowMax[ri] = cnt
		}
		if cnt > colMax[ci] {
			colMax[ci] = cnt
		}
	}
	s := 0
	for _, m := range rowMax {
		s += m
	}
	for _, m := range colMax {
		s += m
	}
	return 1 - float64(s)/(2*float64(c.N))
}

// FMeasure returns the symmetric cluster-matching F score: for each
// community, the best-matching community of the other partition by F1,
// size-weighted, averaged over both directions. 1 means identical.
func (c *Contingency) FMeasure() float64 {
	if c.N == 0 {
		return 1
	}
	// bestRow[ri] = max over cols of F1; bestCol[ci] analogous.
	bestRow := make([]float64, len(c.RowSz))
	bestCol := make([]float64, len(c.ColSz))
	for key, cnt := range c.Cells {
		ri := int(key >> 32)
		ci := int(uint32(key))
		f1 := 2 * float64(cnt) / float64(c.RowSz[ri]+c.ColSz[ci])
		if f1 > bestRow[ri] {
			bestRow[ri] = f1
		}
		if f1 > bestCol[ci] {
			bestCol[ci] = f1
		}
	}
	n := float64(c.N)
	fa, fb := 0.0, 0.0
	for ri, f := range bestRow {
		fa += float64(c.RowSz[ri]) / n * f
	}
	for ci, f := range bestCol {
		fb += float64(c.ColSz[ci]) / n * f
	}
	return (fa + fb) / 2
}

// Similarity bundles every Table III metric for one partition pair.
type Similarity struct {
	NMI, FMeasure, NVD, Rand, ARI, Jaccard float64
}

// Compare computes all Table III metrics between two assignments.
func Compare(a, b []graph.V) (Similarity, error) {
	c, err := NewContingency(a, b)
	if err != nil {
		return Similarity{}, err
	}
	return Similarity{
		NMI:      c.NMI(),
		FMeasure: c.FMeasure(),
		NVD:      c.VanDongen(),
		Rand:     c.Rand(),
		ARI:      c.AdjustedRand(),
		Jaccard:  c.Jaccard(),
	}, nil
}

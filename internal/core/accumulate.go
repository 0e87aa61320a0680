package core

import "parlouvain/internal/graph"

// nbrScratch is the per-worker state of a neighbor-community scan: dense
// per-community weights w2c, a dense membership flag seen, and the touched
// list of communities whose entries are set. Between scans every w2c entry
// is 0 and every seen entry false; clear restores that through touched, so
// resetting costs O(|touched|), not O(n).
type nbrScratch struct {
	w2c     []float64
	seen    []bool
	touched []graph.V
}

func newNbrScratch(n int) nbrScratch {
	return nbrScratch{
		w2c:     make([]float64, n),
		seen:    make([]bool, n),
		touched: make([]graph.V, 0, 64),
	}
}

// accumulate sums u's edge weights per neighbor community into s.w2c (in
// CSR neighbor order) and returns the distinct communities seen, u's own
// community comm[u] first and the rest in first-sighting order. The scan
// costs O(deg(u)): a community's membership in touched is one seen lookup.
// Call s.clear before the next scan.
func accumulate(wg *graph.Graph, u graph.V, comm []graph.V, s *nbrScratch) []graph.V {
	w2c, seen := s.w2c, s.seen
	c0 := comm[u]
	seen[c0] = true
	touched := append(s.touched[:0], c0)
	lo, hi := wg.Off[u], wg.Off[u+1]
	nbrW := wg.NbrW[lo:hi]
	for j, v := range wg.Nbr[lo:hi] {
		c := comm[v]
		if !seen[c] {
			seen[c] = true
			touched = append(touched, c)
		}
		w2c[c] += nbrW[j]
	}
	s.touched = touched
	return touched
}

// clear zeroes the entries the last accumulate set.
func (s *nbrScratch) clear() {
	for _, c := range s.touched {
		s.w2c[c] = 0
		s.seen[c] = false
	}
}

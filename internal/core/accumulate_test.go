package core

import (
	"math"
	"testing"

	"parlouvain/internal/graph"
	"parlouvain/internal/metrics"
)

// starHubGraph is a star (center 0, leaves 1..40) plus a hub-of-hubs: hubs
// 41..45 form a clique and each hub links to every leaf, so hubs see many
// neighbors in few communities. Every seventh leaf edge has weight 0, which
// a "w2c == 0 means unseen" dedup would mistake for a first sighting.
func starHubGraph() *graph.Graph {
	var el graph.EdgeList
	for leaf := graph.V(1); leaf <= 40; leaf++ {
		w := 1.25
		if leaf%7 == 0 {
			w = 0
		}
		el = append(el, graph.Edge{U: 0, V: leaf, W: w})
	}
	for h := graph.V(41); h <= 45; h++ {
		for h2 := h + 1; h2 <= 45; h2++ {
			el = append(el, graph.Edge{U: h, V: h2, W: 0.3})
		}
		for leaf := graph.V(1); leaf <= 40; leaf++ {
			w := 0.1 * float64(leaf%5+1)
			if (leaf+h)%7 == 0 {
				w = 0
			}
			el = append(el, graph.Edge{U: h, V: leaf, W: w})
		}
		el = append(el, graph.Edge{U: h, V: h, W: 2}) // self-loops stay out of the scan
	}
	return graph.Build(el, 46)
}

// TestAccumulateMatchesReference drives the shared neighbor-community scan
// over every vertex with one reused scratch, under the identity partition
// and a warm start that merges vertices into few labels. touched must list
// each neighbor community exactly once, u's own first and the rest in
// first-sighting order, and w2c must equal a map-based reference bit for
// bit (sums in neighbor order). After clear the scratch must be all-zero.
func TestAccumulateMatchesReference(t *testing.T) {
	g := starHubGraph()
	identity := make([]graph.V, g.N)
	warm := make([]graph.V, g.N)
	for u := range identity {
		identity[u] = graph.V(u)
		warm[u] = graph.V((u * 5) % 9) // labels 0..8, hubs and leaves mixed
	}
	s := newNbrScratch(g.N)
	for name, comm := range map[string][]graph.V{"identity": identity, "warm": warm} {
		for u := graph.V(0); int(u) < g.N; u++ {
			c0 := comm[u]
			wantOrder := []graph.V{c0}
			wantW := map[graph.V]float64{c0: 0}
			for i := g.Off[u]; i < g.Off[u+1]; i++ {
				c := comm[g.Nbr[i]]
				if _, ok := wantW[c]; !ok {
					wantOrder = append(wantOrder, c)
				}
				wantW[c] += g.NbrW[i]
			}

			touched := accumulate(g, u, comm, &s)
			if len(touched) != len(wantOrder) {
				t.Fatalf("%s u=%d: touched %v, want %v", name, u, touched, wantOrder)
			}
			for i, c := range wantOrder {
				if touched[i] != c {
					t.Fatalf("%s u=%d: touched %v, want %v", name, u, touched, wantOrder)
				}
				if math.Float64bits(s.w2c[c]) != math.Float64bits(wantW[c]) {
					t.Fatalf("%s u=%d: w2c[%d] = %v, want %v", name, u, c, s.w2c[c], wantW[c])
				}
			}
			s.clear()
			for c := range s.w2c {
				if s.w2c[c] != 0 || s.seen[c] {
					t.Fatalf("%s u=%d: scratch entry %d not cleared", name, u, c)
				}
			}
		}
	}
}

// TestSweepsOnStarHubGraph runs the three engines whose sweeps share the
// scan (sweepLevel, plmLevel, lnsLevel) on the zero-weight hub graph, cold
// and with a warm start, at one and two threads: each must return a
// complete partition whose reported Q matches an independent recompute.
func TestSweepsOnStarHubGraph(t *testing.T) {
	g := starHubGraph()
	warm := make([]graph.V, g.N)
	for u := range warm {
		warm[u] = graph.V(u % 3)
	}
	engines := map[string]func(*graph.Graph, Options) *Result{
		"sequential": Sequential, "plm": PLM, "lns": LNS,
	}
	for name, run := range engines {
		for _, w := range [][]graph.V{nil, warm} {
			for _, threads := range []int{1, 2} {
				res := run(g, Options{Warm: w, Threads: threads})
				if len(res.Membership) != g.N {
					t.Fatalf("%s warm=%v threads=%d: membership covers %d of %d", name, w != nil, threads, len(res.Membership), g.N)
				}
				if q := metrics.Modularity(g, res.Membership); math.Abs(q-res.Q) > 1e-12 {
					t.Errorf("%s warm=%v threads=%d: reported Q %v, recomputed %v", name, w != nil, threads, res.Q, q)
				}
			}
		}
	}
}

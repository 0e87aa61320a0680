package metrics

import (
	"math"
	"testing"

	"parlouvain/internal/graph"
)

// relabel applies a permutation to community ids: metrics must depend only
// on the partition structure, never on the label values.
func relabel(a []graph.V, perm map[graph.V]graph.V) []graph.V {
	out := make([]graph.V, len(a))
	for i, c := range a {
		out[i] = perm[c]
	}
	return out
}

func TestSimilarityLabelPermutationInvariance(t *testing.T) {
	// Three ragged communities against a coarser two-block partition.
	a := []graph.V{0, 0, 0, 1, 1, 2, 2, 2, 2, 1}
	b := []graph.V{5, 5, 5, 5, 5, 9, 9, 9, 9, 9}
	base, err := Compare(a, b)
	if err != nil {
		t.Fatal(err)
	}
	perms := []map[graph.V]graph.V{
		{0: 2, 1: 0, 2: 1},
		{0: 17, 1: 4, 2: 900},
	}
	for pi, perm := range perms {
		got, err := Compare(relabel(a, perm), b)
		if err != nil {
			t.Fatal(err)
		}
		if got != base {
			t.Errorf("perm %d changed metrics: %+v vs %+v", pi, got, base)
		}
	}
	// Permuting the second side too.
	got, err := Compare(relabel(a, perms[0]), relabel(b, map[graph.V]graph.V{5: 0, 9: 3}))
	if err != nil {
		t.Fatal(err)
	}
	if got != base {
		t.Errorf("two-sided perm changed metrics: %+v vs %+v", got, base)
	}
}

func TestSimilarityDegenerateOpposites(t *testing.T) {
	// All singletons vs all-in-one: the maximally disagreeing pair. Every
	// metric must stay finite; the chance-corrected ones must not reward it.
	const n = 50
	sing := make([]graph.V, n)
	one := make([]graph.V, n)
	for i := range sing {
		sing[i] = graph.V(i)
	}
	s, err := Compare(sing, one)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]float64{
		"NMI": s.NMI, "F": s.FMeasure, "NVD": s.NVD,
		"RI": s.Rand, "ARI": s.ARI, "JI": s.Jaccard,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v on singletons-vs-one-block", name, v)
		}
	}
	if s.ARI > 1e-9 {
		t.Errorf("ARI = %v, want <= 0 for structureless agreement", s.ARI)
	}
	if s.NMI > 1e-9 {
		t.Errorf("NMI = %v, want 0 (one side has zero entropy)", s.NMI)
	}
}

func TestSimilaritySingleVertex(t *testing.T) {
	s, err := Compare([]graph.V{3}, []graph.V{8})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(s.NMI) || math.IsNaN(s.ARI) || math.IsNaN(s.Rand) {
		t.Errorf("single-vertex compare produced NaN: %+v", s)
	}
}

// FuzzNMISymmetry checks, over arbitrary label vectors, that NMI is
// symmetric, bounded to [0, 1], and never NaN — and that ARI stays finite
// and symmetric on the same inputs.
func FuzzNMISymmetry(f *testing.F) {
	f.Add([]byte{0, 1, 2}, []byte{1, 1, 0})
	f.Add([]byte{0, 0, 0, 0}, []byte{0, 1, 2, 3})
	f.Add([]byte{5}, []byte{250})
	f.Fuzz(func(t *testing.T, la, lb []byte) {
		n := len(la)
		if len(lb) < n {
			n = len(lb)
		}
		if n == 0 {
			return
		}
		a := make([]graph.V, n)
		b := make([]graph.V, n)
		for i := 0; i < n; i++ {
			a[i], b[i] = graph.V(la[i]), graph.V(lb[i])
		}
		ab, err := Compare(a, b)
		if err != nil {
			t.Fatal(err)
		}
		ba, err := Compare(b, a)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ab.NMI-ba.NMI) > 1e-9 {
			t.Errorf("NMI asymmetric: %v vs %v", ab.NMI, ba.NMI)
		}
		if math.IsNaN(ab.NMI) || ab.NMI < -1e-9 || ab.NMI > 1+1e-9 {
			t.Errorf("NMI out of [0,1]: %v", ab.NMI)
		}
		if math.Abs(ab.ARI-ba.ARI) > 1e-9 {
			t.Errorf("ARI asymmetric: %v vs %v", ab.ARI, ba.ARI)
		}
		if math.IsNaN(ab.ARI) || math.IsInf(ab.ARI, 0) {
			t.Errorf("ARI not finite: %v", ab.ARI)
		}
	})
}

// TestNMIDeterministic: NMI must reduce its cells in a fixed order, so
// repeated calls on one contingency table give the same bits even though
// Go randomizes map iteration.
func TestNMIDeterministic(t *testing.T) {
	const n = 4000
	a := make([]graph.V, n)
	b := make([]graph.V, n)
	x := uint64(12345)
	for i := range a {
		x = x*6364136223846793005 + 1442695040888963407
		a[i] = graph.V(x>>33) % 97
		b[i] = (a[i]*7 + graph.V(x>>50)%5) % 61
	}
	c, err := NewContingency(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Cells) < 100 {
		t.Fatalf("only %d cells; the test needs many to expose order effects", len(c.Cells))
	}
	want := math.Float64bits(c.NMI())
	for i := 0; i < 200; i++ {
		if got := math.Float64bits(c.NMI()); got != want {
			t.Fatalf("call %d: NMI bits %x, want %x", i, got, want)
		}
	}
}

// TestNMIIdenticalIsExactlyOne: two labelings of one partition must score
// exactly 1, not 1 ± a few ulp, for skewed community sizes over a sweep of
// element and community counts.
func TestNMIIdenticalIsExactlyOne(t *testing.T) {
	for _, n := range []int{1000, 5000, 65536} {
		for k := graph.V(2); k < 3000; k = k*3/2 + 1 {
			a := make([]graph.V, n)
			b := make([]graph.V, n)
			x := uint64(k) + uint64(n)
			for i := range a {
				x = x*6364136223846793005 + 1442695040888963407
				r := graph.V(x >> 33)
				a[i] = (r % k) * (r%3 + 1) % k
				b[i] = a[i]*31 + 5 // a relabeling
			}
			c, err := NewContingency(a, b)
			if err != nil {
				t.Fatal(err)
			}
			if got := c.NMI(); got != 1 {
				t.Errorf("n=%d k=%d: NMI of identical partitions = %v, want exactly 1", n, k, got)
			}
		}
	}
}

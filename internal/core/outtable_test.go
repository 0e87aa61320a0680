package core

import (
	"math"
	"math/rand"
	"testing"

	"parlouvain/internal/edgetable"
	"parlouvain/internal/hashfn"
)

// outTableOps replays an op stream decoded from data against an outTable
// and the general edgetable.Table the Out_Table used to be, failing on the
// first difference in AddPair's newness report, GetPair, or the full entry
// sequence (order, keys and weight bits). Each op is three bytes:
//
//	kind%4 == 0, 1  AddPair(u, c, w)
//	kind%4 == 2     delta move: AddPair(u, c, -w) then AddPair(u, c', +w),
//	                the shape of deltaMerge, which leaves zero-weight entries
//	kind%4 == 3     reset both (the outTable pre-sized from the op byte)
//
// Vertices and communities come from small ranges, so keys repeat, and the
// initial pre-size is tiny, so the index grows past it.
func outTableOps(t *testing.T, data []byte) {
	t.Helper()
	var o outTable
	o.reset(int(len(data) % 5))
	ref := edgetable.New(edgetable.Config{})
	weight := func(b byte) float64 {
		// Mix exact binary fractions with decimal ones whose sums round.
		if b&1 == 0 {
			return float64(b) / 8
		}
		return float64(b) * 0.1
	}
	add := func(u, c uint32, w float64) {
		got, want := o.AddPair(u, c, w), ref.AddPair(u, c, w)
		if got != want {
			t.Fatalf("AddPair(%d,%d,%v) new=%v, edgetable says %v", u, c, w, got, want)
		}
	}
	for i := 0; i+3 <= len(data); i += 3 {
		kind, a, b := data[i], data[i+1], data[i+2]
		u, c := uint32(a%32), uint32(b%16)
		switch kind % 4 {
		case 0, 1:
			add(u, c, weight(kind^b))
		case 2:
			w := weight(a ^ b)
			add(u, c, -w)
			add(u, (c+uint32(kind>>2))%16, w)
		case 3:
			o.reset(int(a % 8))
			ref.Reset()
		}
		w, ok := o.GetPair(u, c)
		rw, rok := ref.GetPair(u, c)
		if ok != rok || math.Float64bits(w) != math.Float64bits(rw) {
			t.Fatalf("GetPair(%d,%d) = %v,%v; edgetable %v,%v", u, c, w, ok, rw, rok)
		}
	}
	i := 0
	ref.Range(func(key uint64, w float64) bool {
		if i >= len(o.keys) {
			t.Fatalf("outTable has %d entries, edgetable more", len(o.keys))
		}
		if o.keys[i] != key || math.Float64bits(o.w[i]) != math.Float64bits(w) {
			t.Fatalf("entry %d: outTable (%x, %v), edgetable (%x, %v)", i, o.keys[i], o.w[i], key, w)
		}
		i++
		return true
	})
	if i != len(o.keys) || len(o.w) != len(o.keys) {
		t.Fatalf("outTable has %d keys and %d weights, edgetable %d entries", len(o.keys), len(o.w), i)
	}
}

func TestOutTableMatchesEdgetable(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		data := make([]byte, 3*rng.Intn(2000))
		rng.Read(data)
		outTableOps(t, data)
	}
}

// TestFlatIndexResetClearsChains reuses an index across resets with keys
// that all share one probe chain: after a reset, re-inserting only the
// chain's later keys must find them, and the earlier keys must be absent.
func TestFlatIndexResetClearsChains(t *testing.T) {
	var o outTable
	o.reset(0)
	// Collect keys that all hash to one home slot of the 16-slot index.
	home := hashfn.FibonacciPow2(hashfn.Pack32(0, 0), o.idx.shift)
	var same [][2]uint32
	for u := uint32(0); len(same) < 6; u++ {
		if hashfn.FibonacciPow2(hashfn.Pack32(u, 0), o.idx.shift) == home {
			same = append(same, [2]uint32{u, 0})
		}
	}
	for round := 0; round < 3; round++ {
		for i, k := range same[:4] {
			if !o.AddPair(k[0], k[1], float64(i+1)) {
				t.Fatalf("round %d: key %v reported present after reset", round, k)
			}
		}
		o.reset(0)
		for _, k := range same[2:] {
			o.AddPair(k[0], k[1], 1)
		}
		for _, k := range same[:2] {
			if _, ok := o.GetPair(k[0], k[1]); ok {
				t.Fatalf("round %d: key %v survived the reset", round, k)
			}
		}
		for _, k := range same[2:] {
			if w, ok := o.GetPair(k[0], k[1]); !ok || w != 1 {
				t.Fatalf("round %d: key %v = %v,%v after re-insert", round, k, w, ok)
			}
		}
		o.reset(0)
	}
}

func TestOutTableGrowsPastPresize(t *testing.T) {
	var o outTable
	o.reset(4)
	const n = 5000
	for u := uint32(0); u < n; u++ {
		o.AddPair(u, u%7, float64(u))
	}
	if len(o.keys) != n || 2*len(o.keys) > len(o.idx.slots) {
		t.Fatalf("%d keys in a %d-slot index", len(o.keys), len(o.idx.slots))
	}
	for u := uint32(0); u < n; u++ {
		if w, ok := o.GetPair(u, u%7); !ok || w != float64(u) {
			t.Fatalf("GetPair(%d) = %v,%v", u, w, ok)
		}
		if hashfn.Pack32(u, u%7) != o.keys[u] {
			t.Fatalf("entry %d out of insertion order", u)
		}
	}
	// A reset to a small hint shrinks the index again.
	o.reset(4)
	if len(o.keys) != 0 || len(o.idx.slots) != 16 {
		t.Fatalf("after reset: %d keys, %d slots", len(o.keys), len(o.idx.slots))
	}
}

func TestCommCache(t *testing.T) {
	var c commCache
	c.reset(0)
	for _, cc := range []uint32{9, 3, 9, 40, 3, 7} {
		c.ref(cc)
	}
	want := []uint64{9, 3, 40, 7}
	if len(c.keys) != len(want) {
		t.Fatalf("reference order %v, want %v", c.keys, want)
	}
	for i := range want {
		if c.keys[i] != want[i] {
			t.Fatalf("reference order %v, want %v", c.keys, want)
		}
	}
	if e := c.get(3); e != (commEntry{}) {
		t.Fatalf("unpulled entry %+v", e)
	}
	if !c.store(3, 2.5, 1) {
		t.Error("first pull not reported as a change")
	}
	if c.store(3, 2.5, 1) {
		t.Error("identical pull reported as a change")
	}
	if !c.store(3, 2.5, 2) || !c.store(3, 3, 2) {
		t.Error("changed member count or total not reported")
	}
	if e := c.get(3); e != (commEntry{tot: 3, members: 2, pulled: true}) {
		t.Errorf("get(3) = %+v", e)
	}
	c.ref(3) // re-referencing keeps the pulled totals
	if e := c.get(3); !e.pulled || e.tot != 3 {
		t.Errorf("re-reference dropped the totals: %+v", e)
	}
	if e := c.get(1000); e != (commEntry{}) {
		t.Errorf("absent community = %+v", e)
	}
	c.reset(len(c.keys))
	if len(c.keys) != 0 || c.get(3) != (commEntry{}) {
		t.Error("reset kept entries")
	}
}

// FuzzOutTableOrder checks the Out_Table's iteration order and weights
// against edgetable.Table bit for bit on arbitrary AddPair sequences,
// including delta-style -w/+w pairs, zero-weight leftovers, growth past
// the pre-size and reuse after a reset.
func FuzzOutTableOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 2, 1, 2, 2, 1, 2, 3, 0, 0, 0, 1, 2})
	f.Add([]byte("delta moves leave zero weights behind; resets reuse the index"))
	rng := rand.New(rand.NewSource(1))
	seed := make([]byte, 3000)
	rng.Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		outTableOps(t, data)
	})
}

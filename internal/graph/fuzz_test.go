package graph

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// Fuzz targets guard the file parsers against panics and enforce the
// round-trip invariants on whatever survives parsing. Run with
// `go test -fuzz=FuzzReadText ./internal/graph` for deep exploration;
// plain `go test` replays the seed corpus below.

func FuzzReadText(f *testing.F) {
	f.Add("0 1\n1 2 2.5\n# comment\n")
	f.Add("")
	f.Add("0 0 0\n")
	f.Add("4294967295 4294967295 1e308\n")
	f.Add("a b c\n")
	f.Add("1 2 NaN\n")
	f.Add(strings.Repeat("1 2\n", 100))
	f.Fuzz(func(t *testing.T, in string) {
		el, err := ReadText(strings.NewReader(in))
		if err != nil {
			return
		}
		// Whatever parsed must survive a write/read round trip with
		// identical edges (modulo float formatting fidelity).
		var buf bytes.Buffer
		if err := WriteText(&buf, el); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		back, err := ReadText(&buf)
		if err != nil {
			t.Fatalf("re-read failed: %v", err)
		}
		if len(back) != len(el) {
			t.Fatalf("round trip changed edge count: %d vs %d", len(back), len(el))
		}
		// Building a graph from any parsed input must not panic. Dense
		// vertex arrays are sized MaxVertex+1, so bound the id space the
		// fuzzer can make us allocate.
		if el.NumVertices() <= 1<<20 {
			g := Build(el, 0)
			_ = g.NumEdges()
		}
	})
}

func FuzzReadBinary(f *testing.F) {
	var buf bytes.Buffer
	_ = WriteBinary(&buf, EdgeList{{U: 0, V: 1, W: 1}, {U: 2, V: 2, W: -1}})
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte("PLEL1\n"))
	f.Add([]byte("PLEL1\n\x01\x00\x00\x00\x00\x00\x00\x00"))
	f.Add([]byte("garbage that is long enough to not be magic"))
	f.Fuzz(func(t *testing.T, in []byte) {
		el, err := ReadBinary(bytes.NewReader(in))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteBinary(&out, el); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		back, err := ReadBinary(&out)
		if err != nil {
			t.Fatalf("re-read failed: %v", err)
		}
		if len(back) != len(el) {
			t.Fatalf("round trip changed edge count")
		}
	})
}

func FuzzReadPartition(f *testing.F) {
	f.Add("0 1\n1 1\n2 0\n")
	f.Add("")
	f.Add("5 4294967295\n")
	f.Add("1048575 7\n")
	f.Add("x y\n")
	f.Fuzz(func(t *testing.T, in string) {
		// ReadPartition returns a dense vector sized by the largest
		// vertex id; keep hostile ids from allocating gigabytes.
		for _, line := range strings.Split(in, "\n") {
			fields := strings.Fields(line)
			if len(fields) == 2 && len(fields[0]) > 7 {
				return
			}
		}
		assign, err := ReadPartition(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WritePartition(&buf, assign); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		back, err := ReadPartition(&buf)
		if err != nil {
			t.Fatalf("re-read failed: %v", err)
		}
		if len(back) != len(assign) {
			t.Fatalf("round trip changed length")
		}
		for i := range assign {
			if back[i] != assign[i] {
				t.Fatalf("round trip changed assign[%d]", i)
			}
		}
	})
}

// canonicalizeRef is the specification Canonicalize must meet bit for bit:
// orient U <= V, stable-sort by (U, V), and sum each run of duplicates
// left to right, i.e. in input order.
func canonicalizeRef(el EdgeList) EdgeList {
	out := make(EdgeList, 0, len(el))
	for _, e := range el {
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		out = append(out, e)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	merged := out[:0]
	for _, e := range out {
		if n := len(merged); n > 0 && merged[n-1].U == e.U && merged[n-1].V == e.V {
			merged[n-1].W += e.W
			continue
		}
		merged = append(merged, e)
	}
	return merged
}

// fuzzEdges decodes 3-byte records into edges over a small id space, so
// duplicates (in both orientations) and self-loops are common, with
// fractional weights whose float sum depends on the summation order.
func fuzzEdges(data []byte) EdgeList {
	el := make(EdgeList, 0, len(data)/3)
	for i := 0; i+3 <= len(data); i += 3 {
		el = append(el, Edge{
			U: V(data[i] % 24),
			V: V(data[i+1] % 24),
			W: float64(data[i+2]) / 7.3,
		})
	}
	return el
}

func FuzzCanonicalize(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 1, 7, 1, 5, 3, 3, 3, 1})
	f.Add([]byte{0, 0, 0, 2, 1, 9, 1, 2, 10, 2, 1, 11, 1, 2, 12})
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 8; trial++ {
		b := make([]byte, 3*(1+rng.Intn(400)))
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		el := fuzzEdges(data)
		in := append(EdgeList(nil), el...)
		got := el.Canonicalize()
		for i := range el {
			if el[i] != in[i] {
				t.Fatalf("input modified at %d: %v -> %v", i, in[i], el[i])
			}
		}
		want := canonicalizeRef(in)
		if len(got) != len(want) {
			t.Fatalf("len %d, want %d", len(got), len(want))
		}
		sumIn, sumOut, absIn := 0.0, 0.0, 0.0
		for _, e := range in {
			sumIn += e.W
			absIn += math.Abs(e.W)
		}
		for i, e := range got {
			w := want[i]
			if e.U != w.U || e.V != w.V || math.Float64bits(e.W) != math.Float64bits(w.W) {
				t.Fatalf("edge %d: %v (w bits %x), want %v (w bits %x)",
					i, e, math.Float64bits(e.W), w, math.Float64bits(w.W))
			}
			if e.U > e.V {
				t.Fatalf("edge %d not oriented: %v", i, e)
			}
			if i > 0 {
				p := got[i-1]
				if p.U > e.U || (p.U == e.U && p.V >= e.V) {
					t.Fatalf("edges %d,%d out of order or duplicated: %v %v", i-1, i, p, e)
				}
			}
			sumOut += e.W
		}
		if math.Abs(sumIn-sumOut) > 1e-12*absIn {
			t.Fatalf("total weight %v, want %v", sumOut, sumIn)
		}
	})
}

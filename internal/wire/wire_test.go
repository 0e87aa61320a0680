package wire

import (
	"math"
	"testing"
)

func TestPrimitiveRoundTrip(t *testing.T) {
	var b Buffer
	b.PutU32(0)
	b.PutU32(^uint32(0))
	b.PutU64(1 << 63)
	b.PutF64(-0.0)
	b.PutF64(math.Inf(1))
	b.PutF64(math.Pi)
	b.PutUvarint(0)
	b.PutUvarint(127)
	b.PutUvarint(128)
	b.PutUvarint(^uint64(0))

	r := NewReader(b.Bytes())
	if got := r.U32(); got != 0 {
		t.Errorf("u32 = %d", got)
	}
	if got := r.U32(); got != ^uint32(0) {
		t.Errorf("u32 max = %d", got)
	}
	if got := r.U64(); got != 1<<63 {
		t.Errorf("u64 = %d", got)
	}
	if got := r.F64(); math.Float64bits(got) != math.Float64bits(-0.0) {
		t.Errorf("-0.0 bits lost: %v", got)
	}
	if got := r.F64(); !math.IsInf(got, 1) {
		t.Errorf("inf = %v", got)
	}
	if got := r.F64(); got != math.Pi {
		t.Errorf("pi = %v", got)
	}
	for _, want := range []uint64{0, 127, 128, ^uint64(0)} {
		if got := r.Uvarint(); got != want {
			t.Errorf("uvarint = %d, want %d", got, want)
		}
	}
	if r.More() || r.Err() != nil {
		t.Errorf("leftover=%v err=%v", r.More(), r.Err())
	}
}

func TestReaderShortPlaneLatchesError(t *testing.T) {
	var b Buffer
	b.PutU32(7)
	r := NewReader(b.Bytes()[:2])
	if got := r.U32(); got != 0 {
		t.Errorf("short read returned %d", got)
	}
	if r.Err() == nil {
		t.Fatal("no error latched")
	}
	// Every later read stays zero and keeps the first error.
	first := r.Err()
	if r.U64() != 0 || r.F64() != 0 || r.Uvarint() != 0 || r.More() {
		t.Error("reads after error not inert")
	}
	if r.Err() != first {
		t.Error("error replaced")
	}
}

func TestReaderReset(t *testing.T) {
	var b Buffer
	b.PutU32(42)
	var r Reader
	r.Reset(b.Bytes()[:1])
	r.U32()
	if r.Err() == nil {
		t.Fatal("expected short-plane error")
	}
	r.Reset(b.Bytes())
	if got := r.U32(); got != 42 || r.Err() != nil {
		t.Fatalf("after Reset: %d, %v", got, r.Err())
	}
}

func TestTripleRoundTrip(t *testing.T) {
	in := []Triple{
		{0, 0, 0},
		{1, 2, 3.5},
		{^uint32(0), 7, math.Inf(-1)},
		{12, ^uint32(0), math.Float64frombits(0x7ff8000000000001)}, // NaN payload
	}
	var b Buffer
	for _, tr := range in {
		b.PutTriple(tr)
	}
	if b.Len() != TripleSize*len(in) {
		t.Fatalf("encoded %d bytes, want %d", b.Len(), TripleSize*len(in))
	}
	r := NewReader(b.Bytes())
	for i, want := range in {
		got := r.Triple()
		if got.A != want.A || got.B != want.B ||
			math.Float64bits(got.W) != math.Float64bits(want.W) {
			t.Errorf("triple %d = %+v, want %+v", i, got, want)
		}
	}
	if r.More() || r.Err() != nil {
		t.Errorf("leftover=%v err=%v", r.More(), r.Err())
	}
}

func TestSliceCodecsRoundTrip(t *testing.T) {
	u32 := []uint32{0, 1, ^uint32(0), 12345}
	u64 := []uint64{0, ^uint64(0), 1 << 40}
	f64 := []float64{0, -0.0, math.Inf(1), math.Pi, math.SmallestNonzeroFloat64}

	var b Buffer
	b.PutU32s(u32)
	b.PutU64s(u64)
	b.PutF64s(f64)
	b.PutU32s(nil)

	r := NewReader(b.Bytes())
	gotU32 := r.U32s(nil)
	gotU64 := r.U64s(nil)
	gotF64 := r.F64s(nil)
	gotEmpty := r.U32s(nil)
	if r.Err() != nil || r.More() {
		t.Fatalf("decode: err=%v more=%v", r.Err(), r.More())
	}
	if len(gotU32) != len(u32) {
		t.Fatalf("u32s len %d", len(gotU32))
	}
	for i := range u32 {
		if gotU32[i] != u32[i] {
			t.Errorf("u32s[%d] = %d", i, gotU32[i])
		}
	}
	for i := range u64 {
		if gotU64[i] != u64[i] {
			t.Errorf("u64s[%d] = %d", i, gotU64[i])
		}
	}
	for i := range f64 {
		if math.Float64bits(gotF64[i]) != math.Float64bits(f64[i]) {
			t.Errorf("f64s[%d] bits differ", i)
		}
	}
	if len(gotEmpty) != 0 {
		t.Errorf("empty slice decoded as %v", gotEmpty)
	}
}

func TestSliceCodecReusesDst(t *testing.T) {
	var b Buffer
	b.PutU32s([]uint32{1, 2, 3})
	scratch := make([]uint32, 8)
	got := NewReader(b.Bytes()).U32s(scratch)
	if &got[0] != &scratch[0] {
		t.Error("large-enough dst not reused")
	}
}

func TestAssignRoundTrip(t *testing.T) {
	cases := [][]uint32{
		nil,
		{0},
		{5, 5, 5, 5},
		{0, 1, 2, 3, 4, 5},
		{9, 3, ^uint32(0), 0, 7},
	}
	// Identity vector: the common gather payload.
	ident := make([]uint32, 1000)
	for i := range ident {
		ident[i] = uint32(i)
	}
	cases = append(cases, ident)
	for ci, xs := range cases {
		var b Buffer
		b.PutAssign(xs)
		got := NewReader(b.Bytes()).Assign(nil)
		if len(got) != len(xs) {
			t.Fatalf("case %d: len %d, want %d", ci, len(got), len(xs))
		}
		for i := range xs {
			if got[i] != xs[i] {
				t.Errorf("case %d: [%d] = %d, want %d", ci, i, got[i], xs[i])
			}
		}
	}
}

func TestAssignCompressesCoarseVectors(t *testing.T) {
	// A coarsened assignment (few labels, long runs) must encode far below
	// the 4n fixed-width floor.
	xs := make([]uint32, 4096)
	for i := range xs {
		xs[i] = uint32(i / 512)
	}
	var b Buffer
	b.PutAssign(xs)
	if b.Len() > len(xs)+8 {
		t.Errorf("coarse assignment took %d bytes for %d entries (fixed-width floor %d)",
			b.Len(), len(xs), 4*len(xs))
	}
}

func TestAssignTruncatedPlane(t *testing.T) {
	var b Buffer
	b.PutAssign([]uint32{1, 2, 3, 4})
	r := NewReader(b.Bytes()[:2])
	if got := r.Assign(nil); got != nil || r.Err() == nil {
		t.Errorf("truncated assign: got %v err %v", got, r.Err())
	}
	// A plane whose declared length exceeds its bytes must error, not
	// allocate the declared size.
	var h Buffer
	h.PutUvarint(1 << 40)
	r2 := NewReader(h.Bytes())
	if got := r2.Assign(nil); got != nil || r2.Err() == nil {
		t.Errorf("oversized header: got %v err %v", got, r2.Err())
	}
}

// TestVectorDecodersRejectHugeLengths: a length prefix whose byte size
// overflows int (n*4 or n*8 wrapping negative or small) must latch a
// short-plane error in every length-prefixed decoder, never pass the bounds
// check and reach make.
func TestVectorDecodersRejectHugeLengths(t *testing.T) {
	decoders := map[string]func(r *Reader) bool{
		"U32s":   func(r *Reader) bool { return r.U32s(nil) == nil },
		"U64s":   func(r *Reader) bool { return r.U64s(nil) == nil },
		"F64s":   func(r *Reader) bool { return r.F64s(nil) == nil },
		"Assign": func(r *Reader) bool { return r.Assign(nil) == nil },
		"String": func(r *Reader) bool { return r.String() == "" },
	}
	for name, decode := range decoders {
		for _, n := range []uint64{1 << 62, 1<<63 + 1, 1<<64 - 1, 1 << 40} {
			var b Buffer
			b.PutUvarint(n)
			b.PutU64(0) // a few real bytes after the prefix
			r := NewReader(b.Bytes())
			if !decode(r) || r.Err() == nil {
				t.Errorf("%s with length %d: decoded a value or latched no error", name, n)
			}
		}
	}
}

func TestPlanesPoolRoundTrip(t *testing.T) {
	p := GetPlanes(3)
	if p.Size() != 3 {
		t.Fatalf("size %d", p.Size())
	}
	p.To(0).PutU32(1)
	p.To(2).PutTriple(Triple{1, 2, 3})
	views := p.Views()
	if len(views) != 3 || len(views[0]) != 4 || len(views[1]) != 0 || len(views[2]) != TripleSize {
		t.Fatalf("views %v", views)
	}
	p.Release()

	// Re-acquired planes start empty regardless of prior contents, at any
	// size.
	q := GetPlanes(2)
	for i := 0; i < q.Size(); i++ {
		if q.To(i).Len() != 0 {
			t.Errorf("reused plane %d not reset", i)
		}
	}
	q.Release()
}

func TestPlanePoolRecycles(t *testing.T) {
	b := GetPlane(100)
	if len(b) != 100 {
		t.Fatalf("len %d", len(b))
	}
	PutPlane(b)
	c := GetPlane(50)
	if len(c) != 50 {
		t.Fatalf("len %d", len(c))
	}
	PutPlane(c)

	l := GetPlaneList(4)
	if len(l) != 4 {
		t.Fatalf("list len %d", len(l))
	}
	for i := range l {
		if l[i] != nil {
			t.Errorf("entry %d not nil", i)
		}
		l[i] = GetPlane(8)
	}
	ReleasePlanes(l)
}

func TestExchangeSteadyStateAllocs(t *testing.T) {
	// A steady-state encode/decode round through the pools must not
	// allocate.
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc counts are only meaningful without -race")
	}
	warm := func() {
		p := GetPlanes(4)
		for i := 0; i < 4; i++ {
			for j := 0; j < 64; j++ {
				p.To(i).PutTriple(Triple{uint32(j), uint32(i), 1.5})
			}
		}
		views := p.Views()
		in := GetPlaneList(4)
		for i, v := range views {
			pl := GetPlane(len(v))
			copy(pl, v)
			in[i] = pl
		}
		p.Release()
		var r Reader
		for _, plane := range in {
			r.Reset(plane)
			for r.More() {
				r.Triple()
			}
			if r.Err() != nil {
				t.Fatal(r.Err())
			}
		}
		ReleasePlanes(in)
	}
	warm()
	allocs := testing.AllocsPerRun(100, warm)
	if allocs > 0 {
		t.Errorf("steady-state round allocates %v times", allocs)
	}
}

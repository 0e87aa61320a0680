package wire

import "fmt"

// Typed codecs over the Buffer/Reader primitives. Two families:
//
//   - Triple: the (a, b, w) record of the state-propagation message family
//     — (src, community, weight) in propagation, (srcComm, dstComm, weight)
//     in reconstruction, (vertex, label, weight) in label propagation.
//   - Slice codecs: length-prefixed vectors for collective payloads, and a
//     delta-varint assignment codec for gathered label vectors, which are
//     near-sorted id-dense sequences that compress well under zigzag delta.
//
// All of them round-trip exactly: decode(encode(x)) == x including float
// bit patterns (NaN payloads survive).

// Triple is one (a, b, w) wire record.
type Triple struct {
	A, B uint32
	W    float64
}

// TripleSize is the fixed encoded size of one Triple in bytes.
const TripleSize = 16

// PutTriple appends t as fixed-width (u32, u32, f64).
func (b *Buffer) PutTriple(t Triple) {
	b.PutU32(t.A)
	b.PutU32(t.B)
	b.PutF64(t.W)
}

// Triple decodes one triple (zero value after an error).
func (r *Reader) Triple() Triple {
	var t Triple
	t.A = r.U32()
	t.B = r.U32()
	t.W = r.F64()
	return t
}

// PutU32s appends a length-prefixed fixed-width uint32 vector.
func (b *Buffer) PutU32s(xs []uint32) {
	b.PutUvarint(uint64(len(xs)))
	b.Grow(4 * len(xs))
	for _, x := range xs {
		b.PutU32(x)
	}
}

// U32s decodes a length-prefixed uint32 vector into dst (reused when large
// enough), returning the filled slice (nil after an error).
func (r *Reader) U32s(dst []uint32) []uint32 {
	n, ok := r.vecLen("u32 vector", 4)
	if !ok {
		return nil
	}
	dst = growU32(dst, n)
	for i := range dst {
		dst[i] = r.U32()
	}
	return dst
}

// PutU64s appends a length-prefixed fixed-width uint64 vector.
func (b *Buffer) PutU64s(xs []uint64) {
	b.PutUvarint(uint64(len(xs)))
	b.Grow(8 * len(xs))
	for _, x := range xs {
		b.PutU64(x)
	}
}

// U64s decodes a length-prefixed uint64 vector into dst.
func (r *Reader) U64s(dst []uint64) []uint64 {
	n, ok := r.vecLen("u64 vector", 8)
	if !ok {
		return nil
	}
	if cap(dst) >= n {
		dst = dst[:n]
	} else {
		dst = make([]uint64, n)
	}
	for i := range dst {
		dst[i] = r.U64()
	}
	return dst
}

// PutF64s appends a length-prefixed float64 vector (exact bit patterns).
func (b *Buffer) PutF64s(xs []float64) {
	b.PutUvarint(uint64(len(xs)))
	b.Grow(8 * len(xs))
	for _, x := range xs {
		b.PutF64(x)
	}
}

// F64s decodes a length-prefixed float64 vector into dst.
func (r *Reader) F64s(dst []float64) []float64 {
	n, ok := r.vecLen("f64 vector", 8)
	if !ok {
		return nil
	}
	if cap(dst) >= n {
		dst = dst[:n]
	} else {
		dst = make([]float64, n)
	}
	for i := range dst {
		dst[i] = r.F64()
	}
	return dst
}

// zigzag maps a signed delta to an unsigned varint-friendly value.
func zigzag(d int64) uint64 { return uint64((d << 1) ^ (d >> 63)) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// PutAssign appends an assignment plane: a length prefix followed by the
// zigzag-encoded first-difference of the vector, varint-packed. Gathered
// community/label vectors start as the identity and coarsen toward few
// distinct labels, so consecutive differences are small and the plane is
// typically a fraction of the 4·n fixed encoding.
func (b *Buffer) PutAssign(xs []uint32) {
	b.PutUvarint(uint64(len(xs)))
	prev := int64(0)
	for _, x := range xs {
		b.PutUvarint(zigzag(int64(x) - prev))
		prev = int64(x)
	}
}

// Assign decodes an assignment plane into dst (reused when large enough),
// returning the filled slice (nil after an error).
func (r *Reader) Assign(dst []uint32) []uint32 {
	n, ok := r.vecLen("assignment", 1) // every delta takes >= 1 byte
	if !ok {
		return nil
	}
	dst = growU32(dst, n)
	prev := int64(0)
	for i := range dst {
		v := prev + unzigzag(r.Uvarint())
		if r.err != nil {
			return nil
		}
		if v < 0 || v > int64(^uint32(0)) {
			r.err = fmt.Errorf("wire: assignment value %d outside uint32 range", v)
			return nil
		}
		dst[i] = uint32(v)
		prev = v
	}
	return dst
}

func growU32(dst []uint32, n int) []uint32 {
	if cap(dst) >= n {
		return dst[:n]
	}
	return make([]uint32, n)
}

// Package wire is the shared codec layer for every byte plane the rank
// runtime moves: the per-destination send planes built by the Louvain
// engine's phases and by the BFS/SSSP/label-propagation workloads, and the
// payloads of the comm collectives (reductions, gathers). It provides
//
//   - Buffer / Reader: append-only little-endian plane encoding and its
//     error-latching decoder (fixed u32/u64/f64 plus unsigned varints);
//   - typed codecs: (u32,u32,f64) triples — the universal message of the
//     state-propagation family — and delta-varint assignment planes for
//     gathered label/membership vectors;
//   - sync.Pool-backed reuse: whole per-destination plane sets (Planes),
//     scratch buffers, and received planes, so a steady-state exchange
//     round performs no heap allocation.
//
// Every codec is round-trip checked by unit tests and a go test -fuzz
// harness; both in-process and TCP transports carry the same bytes, so the
// encoding is the wire format of the distributed runtime.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Buffer is an append-only little-endian plane encoder. The zero value is
// ready to use; Reset keeps capacity for reuse across rounds.
type Buffer struct {
	b []byte
}

// Bytes returns the encoded plane (valid until the next append or Reset).
func (b *Buffer) Bytes() []byte { return b.b }

// Len returns the encoded size in bytes.
func (b *Buffer) Len() int { return len(b.b) }

// Reset clears the buffer, keeping capacity.
func (b *Buffer) Reset() { b.b = b.b[:0] }

// Grow ensures capacity for at least n more bytes.
func (b *Buffer) Grow(n int) {
	if cap(b.b)-len(b.b) < n {
		nb := make([]byte, len(b.b), len(b.b)+n)
		copy(nb, b.b)
		b.b = nb
	}
}

// PutU32 appends a fixed-width uint32.
func (b *Buffer) PutU32(x uint32) {
	b.b = binary.LittleEndian.AppendUint32(b.b, x)
}

// PutU64 appends a fixed-width uint64.
func (b *Buffer) PutU64(x uint64) {
	b.b = binary.LittleEndian.AppendUint64(b.b, x)
}

// PutF64 appends a float64 as its IEEE-754 bit pattern.
func (b *Buffer) PutF64(x float64) {
	b.b = binary.LittleEndian.AppendUint64(b.b, math.Float64bits(x))
}

// PutUvarint appends an unsigned LEB128 varint (1-10 bytes).
func (b *Buffer) PutUvarint(x uint64) {
	b.b = binary.AppendUvarint(b.b, x)
}

// PutBytes appends raw bytes.
func (b *Buffer) PutBytes(p []byte) {
	b.b = append(b.b, p...)
}

// PutString appends a length-prefixed string.
func (b *Buffer) PutString(s string) {
	b.PutUvarint(uint64(len(s)))
	b.b = append(b.b, s...)
}

// Reader decodes a plane produced by Buffer. It latches the first error
// (short read, malformed varint); decode methods return zero afterwards, so
// loops can decode optimistically and check Err once. The zero value reads
// an empty plane; Reset re-arms it for another plane without allocating.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader wraps a received plane.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Reset re-arms r to decode b from the start, clearing any latched error.
func (r *Reader) Reset(b []byte) {
	r.b = b
	r.off = 0
	r.err = nil
}

// Err returns the first decode error, if any.
func (r *Reader) Err() error { return r.err }

// More reports whether unread bytes remain and no error occurred.
func (r *Reader) More() bool { return r.err == nil && r.off < len(r.b) }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

// need reports whether n more bytes can be read, latching a short-plane
// error if not. It compares against the remaining count rather than adding
// to the offset, so no n can overflow the check.
func (r *Reader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if n > r.Remaining() {
		r.err = fmt.Errorf("wire: short plane: need %d bytes at offset %d of %d", n, r.off, len(r.b))
		return false
	}
	return true
}

// vecLen decodes the element count of a length-prefixed sequence whose
// elements take at least size bytes each, and latches an error unless that
// many elements fit in the remaining bytes. The count is bounded by
// division, never multiplied, so a hostile 64-bit length can neither
// overflow the check nor drive an allocation or loop larger than the plane.
func (r *Reader) vecLen(what string, size int) (int, bool) {
	n := r.Uvarint()
	if r.err != nil {
		return 0, false
	}
	if n > uint64(r.Remaining()/size) {
		r.err = fmt.Errorf("wire: implausible %s count %d for %d remaining bytes", what, n, r.Remaining())
		return 0, false
	}
	return int(n), true
}

// U32 decodes a fixed-width uint32 (0 after an error).
func (r *Reader) U32() uint32 {
	if !r.need(4) {
		return 0
	}
	x := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return x
}

// U64 decodes a fixed-width uint64 (0 after an error).
func (r *Reader) U64() uint64 {
	if !r.need(8) {
		return 0
	}
	x := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return x
}

// F64 decodes a float64 (0 after an error).
func (r *Reader) F64() float64 {
	if !r.need(8) {
		return 0
	}
	x := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return x
}

// Bytes returns the next n encoded bytes as a view into the plane (nil
// after an error or when fewer than n bytes remain).
func (r *Reader) Bytes(n int) []byte {
	if n < 0 {
		if r.err == nil {
			r.err = fmt.Errorf("wire: negative byte count %d", n)
		}
		return nil
	}
	if !r.need(n) {
		return nil
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

// String decodes a length-prefixed string ("" after an error).
func (r *Reader) String() string {
	n, ok := r.vecLen("string", 1)
	if !ok {
		return ""
	}
	return string(r.Bytes(n))
}

// Uvarint decodes an unsigned LEB128 varint (0 after an error).
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.err = fmt.Errorf("wire: bad varint at offset %d of %d", r.off, len(r.b))
		return 0
	}
	r.off += n
	return x
}

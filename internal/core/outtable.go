package core

import (
	"math/bits"

	"parlouvain/internal/hashfn"
)

// The Out_Table (Section IV-A) holds, for every owned vertex u, the total
// edge weight from u into each neighboring community c: ((u, c), w)
// triples, rebuilt by every full state propagation and patched by every
// delta one. Each inner iteration scans it several times (findBest,
// computeQ, the Σtot reference rescan, pruning marks, reconstruction) but
// looks keys up only while filling it and for findBest's stay baseline. So
// each shard stores its entries as flat arrays in first-insertion order —
// every scan is a sequential loop — beside an open-addressed index that
// only the keyed operations consult. First-insertion order is the order a
// probing edgetable.Table iterates in (its growth re-inserts in journal
// order), so float sums over the Out_Table run in the same order as with
// the general table and results are bit-identical.

// flatIndex maps uint64 keys to their positions in a caller-owned,
// insertion-ordered key slice. It is a power-of-two table of int32 slots
// holding position+1 (0 marks an empty slot), probed linearly from the
// key's Fibonacci hash and kept at a load factor of at most 1/2. Keys are
// never deleted, and a reset clears the whole table: emptying single
// slots would cut the probe chains of keys inserted after them.
type flatIndex struct {
	slots []int32
	shift uint // 64 - log2(len(slots))
}

// reset empties the index and sizes it to hold hint keys without growing.
func (x *flatIndex) reset(hint int) {
	n := 16
	for n < 2*hint {
		n <<= 1
	}
	if cap(x.slots) >= n {
		x.slots = x.slots[:n]
		clear(x.slots)
	} else {
		x.slots = make([]int32, n)
	}
	x.shift = uint(64 - bits.TrailingZeros(uint(n)))
}

// find returns the position of key in keys, or -1 and the empty slot
// where key belongs.
func (x *flatIndex) find(keys []uint64, key uint64) (pos, slot int) {
	mask := len(x.slots) - 1
	slot = int(hashfn.FibonacciPow2(key, x.shift))
	for {
		p := x.slots[slot]
		if p == 0 {
			return -1, slot
		}
		if keys[p-1] == key {
			return int(p - 1), slot
		}
		slot = (slot + 1) & mask
	}
}

// insert indexes the key just appended to keys at the empty slot find
// returned for it, doubling the table once the load passes 1/2.
func (x *flatIndex) insert(keys []uint64, slot int) {
	x.slots[slot] = int32(len(keys))
	if 2*len(keys) <= len(x.slots) {
		return
	}
	x.reset(len(keys))
	for i, k := range keys {
		_, s := x.find(keys[:i], k)
		x.slots[s] = int32(i + 1)
	}
}

// outTable is one shard of the Out_Table: keys[i] = Pack32(u, c) with
// accumulated weight w[i], in first-insertion order since the last reset.
// Entries emptied by delta propagation stay, at weight 0, until the next
// reset. A shard must be reset before its first use.
type outTable struct {
	keys []uint64
	w    []float64
	idx  flatIndex
}

// reset empties the shard and sizes its index for hint entries.
func (o *outTable) reset(hint int) {
	o.keys = o.keys[:0]
	o.w = o.w[:0]
	o.idx.reset(hint)
}

// AddPair accumulates w onto (u, c), inserting the key if absent, and
// reports whether it was new.
func (o *outTable) AddPair(u, c uint32, w float64) bool {
	key := hashfn.Pack32(u, c)
	p, slot := o.idx.find(o.keys, key)
	if p >= 0 {
		o.w[p] += w
		return false
	}
	o.keys = append(o.keys, key)
	o.w = append(o.w, w)
	o.idx.insert(o.keys, slot)
	return true
}

// GetPair returns the accumulated weight of (u, c).
func (o *outTable) GetPair(u, c uint32) (float64, bool) {
	p, _ := o.idx.find(o.keys, hashfn.Pack32(u, c))
	if p < 0 {
		return 0, false
	}
	return o.w[p], true
}

// commCache holds Σtot and the member count of every community this rank
// references — Out_Table targets and the owned vertices' own communities —
// in first-reference order, which is the order pullTotals requests them
// in. findBest reads both values with one lookup. Like outTable, it must be
// reset before its first use.
type commCache struct {
	keys []uint64 // community ids
	ent  []commEntry
	idx  flatIndex
}

// commEntry is one referenced community's cached totals. pulled is false
// from the community's first reference until its owner's answer arrives.
type commEntry struct {
	tot, members float64
	pulled       bool
}

// reset empties the cache and sizes its index for hint communities.
func (c *commCache) reset(hint int) {
	c.keys = c.keys[:0]
	c.ent = c.ent[:0]
	c.idx.reset(hint)
}

// ref adds cc to the reference set if it is not there yet, as an unpulled
// entry, and returns its position.
func (c *commCache) ref(cc uint32) int {
	p, slot := c.idx.find(c.keys, uint64(cc))
	if p >= 0 {
		return p
	}
	c.keys = append(c.keys, uint64(cc))
	c.ent = append(c.ent, commEntry{})
	c.idx.insert(c.keys, slot)
	return len(c.keys) - 1
}

// get returns the cached entry of cc; the zero entry if cc is not
// referenced.
func (c *commCache) get(cc uint32) commEntry {
	p, _ := c.idx.find(c.keys, uint64(cc))
	if p < 0 {
		return commEntry{}
	}
	return c.ent[p]
}

// store records the totals pulled for cc and reports whether they differ
// from the previous pull (always true for a first pull).
func (c *commCache) store(cc uint32, tot, members float64) bool {
	e := &c.ent[c.ref(cc)]
	changed := !e.pulled || e.tot != tot || e.members != members
	*e = commEntry{tot: tot, members: members, pulled: true}
	return changed
}

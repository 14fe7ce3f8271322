package core

import "slices"

// posLess orders batch positions by (key, position): runs of one key are
// contiguous after sorting, and duplicates of a key stay in batch order,
// which keeps non-commutative float updates (push) deterministic.
func posLess(keys []uint64, a, b int32) bool {
	ka, kb := keys[a], keys[b]
	return ka < kb || (ka == kb && a < b)
}

// sortPosByKey sorts pos by posLess in place without steady-state
// allocation — the hot path cannot afford slices.SortFunc's comparator
// closure. When every key fits in 32 bits (embedding IDs in practice), each
// (key, position) pair packs into one uint64 and a branch-free slices.Sort
// over the packed words replaces the pointer-chasing comparator — roughly
// half the sort cost of the indirect path, which remains as the fallback
// for wide keys. Both paths produce the identical order. buf is the packing
// scratch, returned (possibly grown) for the caller's pooled scratch.
func sortPosByKey(pos []int32, keys []uint64, buf []uint64) []uint64 {
	if cap(buf) < len(pos) {
		buf = make([]uint64, len(pos)) //oevet:alloc-ok grow-once scratch: the buffer returns to the pooled scratch and steady state never regrows
	}
	buf = buf[:len(pos)]
	// Pack optimistically, accumulating the key OR; a wide key voids the
	// packed buffer (pos itself is untouched so far) and falls back.
	var mk uint64
	for i, p := range pos {
		k := keys[p]
		mk |= k
		buf[i] = k<<32 | uint64(uint32(p))
	}
	if mk>>32 != 0 {
		sortPosIndirect(pos, keys)
		return buf
	}
	slices.Sort(buf)
	for i, v := range buf {
		pos[i] = int32(uint32(v))
	}
	return buf
}

// sortPosIndirect is the wide-key fallback: quicksort with a median-of-three
// pivot, recursing only into the smaller partition (depth stays O(log n)),
// over insertion sort for short sublists (a batch sliced across 8 shards
// leaves ~8 positions per shard).
func sortPosIndirect(pos []int32, keys []uint64) {
	for len(pos) > 12 {
		m, hi := len(pos)/2, len(pos)-1
		if posLess(keys, pos[m], pos[0]) {
			pos[0], pos[m] = pos[m], pos[0]
		}
		if posLess(keys, pos[hi], pos[0]) {
			pos[0], pos[hi] = pos[hi], pos[0]
		}
		if posLess(keys, pos[hi], pos[m]) {
			pos[m], pos[hi] = pos[hi], pos[m]
		}
		pivot := pos[m]
		i, j := 0, hi
		for i <= j {
			for posLess(keys, pos[i], pivot) {
				i++
			}
			for posLess(keys, pivot, pos[j]) {
				j--
			}
			if i <= j {
				pos[i], pos[j] = pos[j], pos[i]
				i++
				j--
			}
		}
		if j < len(pos)-i {
			sortPosIndirect(pos[:j+1], keys)
			pos = pos[i:]
		} else {
			sortPosIndirect(pos[i:], keys)
			pos = pos[:j+1]
		}
	}
	for i := 1; i < len(pos); i++ {
		for j := i; j > 0 && posLess(keys, pos[j], pos[j-1]); j-- {
			pos[j], pos[j-1] = pos[j-1], pos[j]
		}
	}
}

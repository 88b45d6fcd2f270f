package mem

import "math/bits"

// PageSource returns the source recorded for an allocated frame.
func (pm *PhysMem) PageSource(pfn uint64) Source { return metaSrc(pm.meta[pfn]) }

// LargestFreeOrder returns the order of the largest free block, or -1 when
// the region is completely allocated. O(1) via the maintained order masks.
func (b *Buddy) LargestFreeOrder() int {
	var m uint32
	for mt := 0; mt < NumMigrateTypes; mt++ {
		m |= b.mtMask[mt]
	}
	return bits.Len32(m) - 1
}

// FreeBlocks returns the number of free blocks of exactly the given order
// across all migratetype lists. O(1) via the maintained histogram.
func (b *Buddy) FreeBlocks(order int) int {
	n := 0
	for mt := 0; mt < NumMigrateTypes; mt++ {
		n += int(b.blockCount[order][mt])
	}
	return n
}

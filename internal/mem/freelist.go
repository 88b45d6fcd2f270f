package mem

import "math/bits"

// freeList stores the heads of free buddy blocks of one (order,
// migratetype) class. Two implementations exist:
//
//   - lifoList picks the most recently freed block first, matching the
//     Linux free-list behaviour that the baseline simulates, and
//   - orderedList is an address-ordered set of PFNs (ascending or
//     descending pop), implementing the address bias of §3.2: the
//     Contiguitas unmovable region allocates lowest-first (away from the
//     region boundary) and the movable region highest-first, so the
//     boundary between them stays easy to move.
//
// Both support O(1) arbitrary removal (needed by buddy coalescing and
// boundary carving): the LIFO stack through each head's position in the
// frame table's flIdx column, the ordered set through the head's own
// bit.
type freeList interface {
	push(pm *PhysMem, pfn uint64)
	pop(pm *PhysMem) (uint64, bool)
	remove(pm *PhysMem, pfn uint64)
	len() int
	// appendTo appends the listed heads in serialization order: stack
	// order for LIFO lists, ascending PFN for ordered ones.
	appendTo(dst []uint64) []uint64
}

// lifoList is a stack of PFNs.
type lifoList struct{ pfns []uint64 }

func (l *lifoList) len() int                       { return len(l.pfns) }
func (l *lifoList) appendTo(dst []uint64) []uint64 { return append(dst, l.pfns...) }

func (l *lifoList) push(pm *PhysMem, pfn uint64) {
	pm.flIdx[pfn] = int32(len(l.pfns))
	l.pfns = append(l.pfns, pfn)
}

func (l *lifoList) pop(pm *PhysMem) (uint64, bool) {
	if len(l.pfns) == 0 {
		return 0, false
	}
	pfn := l.pfns[len(l.pfns)-1]
	l.pfns = l.pfns[:len(l.pfns)-1]
	return pfn, true
}

func (l *lifoList) remove(pm *PhysMem, pfn uint64) {
	i := int(pm.flIdx[pfn])
	last := len(l.pfns) - 1
	if i != last {
		moved := l.pfns[last]
		l.pfns[i] = moved
		pm.flIdx[moved] = int32(i)
	}
	l.pfns = l.pfns[:last]
}

// orderedList is a multi-level bitmap over the block index pfn>>order
// of the whole frame table: bit i of levels[0] marks head i<<order as
// listed, and bit j of levels[l+1] marks word j of levels[l] as
// non-zero, up to a single top word. Push and remove touch one word per
// level until the summary bit is already right; pop descends from the
// top word with one find-first-set (ascending) or find-last-set
// (descending) per level. At 1 GiB the order-0 set is three levels
// (4096, 64 and 1 words), so every operation is a handful of word
// operations and nothing sifts. The levels are allocated on the first
// push: most (order, migratetype) classes of a region never hold a
// block.
//
// Heads never collide (free blocks of one order are disjoint and
// naturally aligned), so the pop sequence depends only on the set's
// contents, never on the order of past pushes and removals; that is
// why a checkpoint only needs the members (ascending, see snapshot.go).
type orderedList struct {
	levels [][]uint64
	order  uint8
	desc   bool
	n      int
}

func (l *orderedList) len() int { return l.n }

// grow allocates the levels for a frame table of npages frames.
func (l *orderedList) grow(npages uint64) {
	nbits := (npages + OrderPages(int(l.order)) - 1) >> l.order
	for {
		words := (nbits + 63) / 64
		l.levels = append(l.levels, make([]uint64, words))
		if words == 1 {
			return
		}
		nbits = words
	}
}

func (l *orderedList) push(pm *PhysMem, pfn uint64) {
	if l.levels == nil {
		l.grow(pm.NPages)
	}
	// Ordered lists index by address, not position; zero the column so
	// a head's flIdx never carries a stale LIFO position into a
	// checkpoint's witness.
	pm.flIdx[pfn] = 0
	i := pfn >> l.order
	for _, lv := range l.levels {
		w := &lv[i>>6]
		was := *w
		*w = was | 1<<(i&63)
		if was != 0 {
			break
		}
		i >>= 6
	}
	l.n++
}

func (l *orderedList) remove(pm *PhysMem, pfn uint64) {
	i := pfn >> l.order
	for _, lv := range l.levels {
		w := &lv[i>>6]
		*w &^= 1 << (i & 63)
		if *w != 0 {
			break
		}
		i >>= 6
	}
	l.n--
}

func (l *orderedList) pop(pm *PhysMem) (uint64, bool) {
	if l.n == 0 {
		return 0, false
	}
	var i uint64
	for lv := len(l.levels) - 1; lv >= 0; lv-- {
		w := l.levels[lv][i]
		if l.desc {
			i = i<<6 | uint64(63-bits.LeadingZeros64(w))
		} else {
			i = i<<6 | uint64(bits.TrailingZeros64(w))
		}
	}
	pfn := i << l.order
	l.remove(pm, pfn)
	return pfn, true
}

func (l *orderedList) appendTo(dst []uint64) []uint64 {
	if l.n == 0 {
		return dst
	}
	for wi, w := range l.levels[0] {
		for ; w != 0; w &= w - 1 {
			dst = append(dst, (uint64(wi)<<6|uint64(bits.TrailingZeros64(w)))<<l.order)
		}
	}
	return dst
}

// newFreeList returns an empty list of the given policy for one order,
// or nil for an unknown policy.
func newFreeList(policy AllocPolicy, order int) freeList {
	switch policy {
	case PolicyLIFO:
		return &lifoList{}
	case PolicyLowestPFN:
		return &orderedList{order: uint8(order)}
	case PolicyHighestPFN:
		return &orderedList{order: uint8(order), desc: true}
	}
	return nil
}

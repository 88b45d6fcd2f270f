package kernel

// Handle names one live allocation. It is a pointer-free value: slot
// indexes the kernel's page table and gen is the slot's generation at
// allocation time. Freeing (or reclaiming) an allocation bumps its
// slot's generation before the slot is recycled, so every handle to a
// freed block — including one whose slot now backs a newer allocation
// — is detectably stale (ErrStaleHandle from Free, false from Live).
// The zero Handle never names an allocation.
type Handle struct {
	slot, gen uint32
}

// slotChunk is the number of records per slot-table chunk. The table
// grows a chunk at a time, so its memory tracks the peak live count
// without the copies (and the 2x overshoot) of a doubling slice.
const slotChunk = 1024

// liveTable owns the allocation records. chunks is the slot table,
// addressed by slot (slot 0 is reserved so the zero Handle and a zero
// slotOf entry mean "none"); nslots counts the slots ever handed out,
// free recycles released ones, and slotOf maps a block-head PFN to its
// slot. Every column is pointer-free, so the GC never scans them and no
// allocation, free or migration pays a write barrier; slots are
// recycled, so a long run's handle memory is bounded by its peak live
// count, not by its total allocation count. A record never moves, but
// once its slot is released it may describe a newer allocation.
type liveTable struct {
	chunks [][]Page
	nslots uint32
	free   []uint32
	slotOf []uint32
	n      int
}

func newLiveTable(npages uint64) *liveTable {
	return &liveTable{chunks: [][]Page{make([]Page, slotChunk)}, nslots: 1, slotOf: make([]uint32, npages)}
}

func (lt *liveTable) rec(s uint32) *Page { return &lt.chunks[s/slotChunk][s%slotChunk] }

// get returns the record of the allocation headed at pfn (nil when
// none).
func (lt *liveTable) get(pfn uint64) *Page {
	if s := lt.slotOf[pfn]; s != 0 {
		return lt.rec(s)
	}
	return nil
}

// lookup returns the record a handle names, or nil for a stale or zero
// handle.
func (lt *liveTable) lookup(h Handle) *Page {
	if h.slot == 0 || h.slot >= lt.nslots {
		return nil
	}
	p := lt.rec(h.slot)
	if p.gen != h.gen {
		return nil
	}
	return p
}

// newSlot takes a recycled slot (or a fresh one) and returns its
// record, with slot and gen set and every other field zero.
func (lt *liveTable) newSlot() *Page {
	var s uint32
	if n := len(lt.free); n > 0 {
		s = lt.free[n-1]
		lt.free = lt.free[:n-1]
	} else {
		s = lt.nslots
		lt.nslots++
		if s%slotChunk == 0 {
			lt.chunks = append(lt.chunks, make([]Page, slotChunk))
		}
	}
	p := lt.rec(s)
	*p = Page{slot: s, gen: p.gen}
	return p
}

// release retires p's slot: its generation moves on, so every
// outstanding handle to it turns stale, and the slot is recycled. The
// caller has already dropped p's PFN mapping.
func (lt *liveTable) release(p *Page) {
	p.gen++
	lt.free = append(lt.free, p.slot)
}

// inUse returns the number of slots holding a live record.
func (lt *liveTable) inUse() int { return int(lt.nslots) - 1 - len(lt.free) }

// set records p as the allocation headed at pfn.
func (lt *liveTable) set(pfn uint64, p *Page) {
	slot := &lt.slotOf[pfn]
	if *slot == 0 {
		lt.n++
	}
	*slot = p.slot
}

// del drops the PFN mapping of the allocation headed at pfn; the slot
// itself stays allocated (a migration re-sets it at the new head).
func (lt *liveTable) del(pfn uint64) {
	slot := &lt.slotOf[pfn]
	if *slot != 0 {
		lt.n--
		*slot = 0
	}
}

func (lt *liveTable) len() int { return lt.n }

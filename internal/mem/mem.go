// Package mem models physical memory the way an operating system's page
// allocator sees it: an array of 4 KB page frames grouped into 2 MB
// pageblocks, managed by buddy allocators with per-pageblock migratetypes.
//
// It provides the two layouts the Contiguitas paper compares:
//
//   - the Linux layout — one buddy allocator over all of memory, with
//     fallback stealing between migratetypes (the mechanism that scatters
//     unmovable allocations across the address space), and
//   - the Contiguitas layout — two buddy allocators over two continuous
//     regions (unmovable and movable) separated by a movable boundary.
//
// The package also implements the physical-memory scanners used by the
// paper's fleet study: free-contiguity counts, unmovable-block statistics,
// and potential-contiguity-under-perfect-compaction estimates.
package mem

import "fmt"

// Fundamental geometry. Orders are powers of two of the 4 KB base page:
// order 0 = 4 KB, order 9 = 2 MB (one pageblock), order 18 = 1 GB.
const (
	PageShift = 12
	PageSize  = 1 << PageShift // 4 KB

	PageblockOrder = 9                   // 2 MB
	PageblockPages = 1 << PageblockOrder // 512 base pages

	MaxOrder = 18 // 1 GB, the largest allocation the simulator serves

	Order4K  = 0
	Order2M  = 9
	Order4M  = 10
	Order32M = 13
	Order1G  = 18
)

// OrderBytes returns the size in bytes of a block of the given order.
func OrderBytes(order int) uint64 { return uint64(PageSize) << order }

// OrderPages returns the number of base pages in a block of the given order.
func OrderPages(order int) uint64 { return 1 << order }

// BytesToPages converts a byte count to base pages, rounding up.
func BytesToPages(b uint64) uint64 { return (b + PageSize - 1) / PageSize }

// MigrateType classifies an allocation by how the kernel may relocate it,
// mirroring Linux's MIGRATE_* free-list classes.
type MigrateType uint8

const (
	// MigrateUnmovable marks allocations the kernel cannot relocate:
	// slab, page tables, networking buffers, DMA-pinned memory.
	MigrateUnmovable MigrateType = iota
	// MigrateReclaimable marks allocations that cannot be moved but can
	// be reclaimed and re-created (e.g. clean file caches, inode caches).
	MigrateReclaimable
	// MigrateMovable marks allocations the kernel can migrate at will
	// (almost all userspace memory).
	MigrateMovable

	NumMigrateTypes = 3
)

// String returns the Linux-style name of the migratetype.
func (mt MigrateType) String() string {
	switch mt {
	case MigrateUnmovable:
		return "unmovable"
	case MigrateReclaimable:
		return "reclaimable"
	case MigrateMovable:
		return "movable"
	}
	return fmt.Sprintf("migratetype(%d)", uint8(mt))
}

// Source records what subsystem performed an allocation. The paper's
// fleet study (Figure 6) breaks unmovable memory down by these sources.
type Source uint8

const (
	SrcUser Source = iota // regular application memory
	SrcNetworking
	SrcSlab
	SrcFilesystem
	SrcPageTable
	SrcKernelCode
	SrcOther

	NumSources = 7
)

// String returns a printable name for the allocation source.
func (s Source) String() string {
	switch s {
	case SrcUser:
		return "user"
	case SrcNetworking:
		return "networking"
	case SrcSlab:
		return "slab"
	case SrcFilesystem:
		return "filesystems"
	case SrcPageTable:
		return "page tables"
	case SrcKernelCode:
		return "kernel code"
	case SrcOther:
		return "others"
	}
	return fmt.Sprintf("source(%d)", uint8(s))
}

// Per-page flag bits (the low bits of the packed meta word).
const (
	flagFree   = 1 << 0 // page belongs to a free buddy block
	flagHead   = 1 << 1 // page is the head of its (free or allocated) block
	flagPinned = 1 << 2 // page is pinned (DMA, RDMA): strictly unmovable
)

// Layout of the packed per-frame meta word. Orders are stored biased by
// one (0 means "none"/-1) so the zero word describes a boot-state frame:
// not free, no head, no covering block.
const (
	metaOrdShift = 3  // bits 3-7: block order + 1 if head, else 0
	metaCovShift = 8  // bits 8-12: covering block order + 1, 0 in limbo
	metaMTShift  = 13 // bits 13-14: MigrateType (valid while allocated;
	//                   on a free head: the owning free list's tag)
	metaSrcShift = 15 // bits 15-17: Source (valid while allocated)

	metaOrdMask = 0x1f << metaOrdShift
	metaCovMask = 0x1f << metaCovShift
	metaMTMask  = 0x3 << metaMTShift
	metaSrcMask = 0x7 << metaSrcShift
)

// metaOrder unpacks the block order of a head frame, or -1.
func metaOrder(m uint32) int { return int((m>>metaOrdShift)&0x1f) - 1 }

// metaCov unpacks the covering-block order of a frame, or -1 in limbo.
func metaCov(m uint32) int { return int((m>>metaCovShift)&0x1f) - 1 }

// metaMT unpacks the migratetype stamp.
func metaMT(m uint32) MigrateType { return MigrateType((m >> metaMTShift) & 0x3) }

// metaSrc unpacks the source stamp.
func metaSrc(m uint32) Source { return Source((m >> metaSrcShift) & 0x7) }

// PhysMem is the shared frame table for one simulated machine. The
// per-frame state lives in one packed word per frame (plus a free-list
// index), so the stampers and scanners on the allocation hot path touch
// a single cache line per frame instead of one line per parallel array,
// and a simulated fleet of machines stays cheap.
type PhysMem struct {
	NPages uint64

	// meta packs flags, head order, covering order, migratetype, and
	// source per frame — see the meta* constants above.
	meta  []uint32
	flIdx []int32 // index within the owning free list (valid while free head)
	pbMT  []uint8 // migratetype of each 2 MB pageblock

	// dirty is a bitset over pageblocks: a set bit means the pageblock's
	// cached contiguity summary (see ContigIndex) is stale. Every frame
	// mutation marks its pageblocks dirty; Scan revisits only dirty ones.
	dirty      []uint64
	dirtyCount uint64
	idx        *ContigIndex // lazily built on first Scan
}

// NewPhysMem creates a frame table for a machine with the given memory
// size in bytes. The size must be a positive multiple of the pageblock
// size (2 MB) so pageblock accounting is exact.
func NewPhysMem(bytes uint64) *PhysMem {
	if bytes == 0 || bytes%OrderBytes(PageblockOrder) != 0 {
		panic("mem: machine size must be a positive multiple of 2MB")
	}
	n := bytes / PageSize
	npb := n / PageblockPages
	pm := &PhysMem{
		NPages: n,
		// The zero meta word already encodes the boot state (no head,
		// no covering block), so no initialisation pass is needed.
		meta:  make([]uint32, n),
		flIdx: make([]int32, n),
		pbMT:  make([]uint8, npb),
		dirty: make([]uint64, (npb+63)/64),
	}
	pm.DirtyAll()
	return pm
}

// markDirty flags every pageblock overlapping [pfn, pfn+n) as needing a
// summary recompute. Single-pageblock spans (the common case: order < 9
// buddy operations) take the early path.
func (pm *PhysMem) markDirty(pfn, n uint64) {
	first := pfn / PageblockPages
	last := (pfn + n - 1) / PageblockPages
	for pb := first; pb <= last; pb++ {
		w, b := pb>>6, uint64(1)<<(pb&63)
		if pm.dirty[w]&b == 0 {
			pm.dirty[w] |= b
			pm.dirtyCount++
		}
	}
}

// DirtyAll invalidates every cached pageblock summary, forcing the next
// Scan to recompute from the frame table (used at boot and by tests that
// exercise the cold-scan path).
func (pm *PhysMem) DirtyAll() {
	npb := pm.NPages / PageblockPages
	for i := range pm.dirty {
		pm.dirty[i] = ^uint64(0)
	}
	// Clear the tail bits beyond the last pageblock so popcount-style
	// accounting stays exact.
	if rem := npb & 63; rem != 0 {
		pm.dirty[len(pm.dirty)-1] = (uint64(1) << rem) - 1
	}
	pm.dirtyCount = npb
}

// NumPageblocks returns the number of 2 MB pageblocks.
func (pm *PhysMem) NumPageblocks() uint64 { return pm.NPages / PageblockPages }

// PageblockOf returns the pageblock index containing pfn.
func (pm *PhysMem) PageblockOf(pfn uint64) uint64 { return pfn / PageblockPages }

// PageblockMT returns the migratetype of the pageblock containing pfn.
func (pm *PhysMem) PageblockMT(pfn uint64) MigrateType {
	return MigrateType(pm.pbMT[pfn/PageblockPages])
}

// SetPageblockMT sets the migratetype of the pageblock containing pfn.
func (pm *PhysMem) SetPageblockMT(pfn uint64, mt MigrateType) {
	pm.pbMT[pfn/PageblockPages] = uint8(mt)
}

// IsFree reports whether the frame is part of a free buddy block.
func (pm *PhysMem) IsFree(pfn uint64) bool { return pm.meta[pfn]&flagFree != 0 }

// IsHead reports whether the frame is the head of its block.
func (pm *PhysMem) IsHead(pfn uint64) bool { return pm.meta[pfn]&flagHead != 0 }

// IsPinned reports whether the frame is pinned.
func (pm *PhysMem) IsPinned(pfn uint64) bool { return pm.meta[pfn]&flagPinned != 0 }

// BlockOrder returns the order of the block headed at pfn, or -1 if pfn is
// not a block head.
func (pm *PhysMem) BlockOrder(pfn uint64) int { return metaOrder(pm.meta[pfn]) }

// PageMT returns the migratetype recorded for an allocated frame.
func (pm *PhysMem) PageMT(pfn uint64) MigrateType { return metaMT(pm.meta[pfn]) }

// SetPinned marks or unmarks the whole block headed at pfn as pinned.
// Pinned frames are treated as strictly unmovable by every scanner and by
// software compaction; only Contiguitas-HW can relocate them.
func (pm *PhysMem) SetPinned(pfn uint64, pinned bool) {
	order := metaOrder(pm.meta[pfn])
	if order < 0 {
		panic("mem: SetPinned on a non-head frame")
	}
	n := OrderPages(order)
	mw := pm.meta[pfn : pfn+n]
	for i := range mw {
		if pinned {
			mw[i] |= flagPinned
		} else {
			mw[i] &^= flagPinned
		}
	}
	pm.markDirty(pfn, n)
}

// Restamp rewrites the migratetype/source stamps of an allocated block
// (after a migration relocates an allocation whose class differs from
// what the destination was allocated as).
func (pm *PhysMem) Restamp(pfn uint64, order int, mt MigrateType, src Source) {
	if metaOrder(pm.meta[pfn]) != order || pm.IsFree(pfn) {
		panic("mem: Restamp of a non-matching block")
	}
	n := OrderPages(order)
	stamp := uint32(mt)<<metaMTShift | uint32(src)<<metaSrcShift
	mw := pm.meta[pfn : pfn+n]
	for i := range mw {
		mw[i] = mw[i]&^(metaMTMask|metaSrcMask) | stamp
	}
	pm.markDirty(pfn, n)
}

// setAllocated stamps block metadata for an allocation: one packed-word
// store per frame (this stamper is the single hottest function in study
// profiles). The full overwrite also drops any pinned bit, as before.
func (pm *PhysMem) setAllocated(pfn uint64, order int, mt MigrateType, src Source) {
	n := OrderPages(order)
	w := uint32(order+1)<<metaCovShift | uint32(mt)<<metaMTShift | uint32(src)<<metaSrcShift
	mw := pm.meta[pfn : pfn+n]
	for i := range mw {
		mw[i] = w
	}
	mw[0] = w | flagHead | uint32(order+1)<<metaOrdShift
	pm.markDirty(pfn, n)
}

// setFreeHead stamps a block as a free buddy block of the given order,
// owned by listMT's free list (the tag takeFree reads back). The mt/src
// stamps of the frames' past lives are dropped; nothing reads them on
// free frames.
func (pm *PhysMem) setFreeHead(pfn uint64, order int, listMT MigrateType) {
	n := OrderPages(order)
	w := uint32(flagFree) | uint32(order+1)<<metaCovShift
	mw := pm.meta[pfn : pfn+n]
	for i := range mw {
		mw[i] = w
	}
	mw[0] = w | flagHead | uint32(order+1)<<metaOrdShift | uint32(listMT)<<metaMTShift
	pm.markDirty(pfn, n)
}

// setHeadMT retags the owning free list of a free head in place.
func (pm *PhysMem) setHeadMT(pfn uint64, mt MigrateType) {
	pm.meta[pfn] = pm.meta[pfn]&^uint32(metaMTMask) | uint32(mt)<<metaMTShift
}

// clearBlock removes head/free marks from a block, sending its frames to
// limbo: cov loses its covering block until a setAllocated/setFreeHead
// re-stamps it. Only the carve path needs it — the buddy split/merge
// loops skip it because they restamp every frame before returning.
func (pm *PhysMem) clearBlock(pfn uint64, order int) {
	n := OrderPages(order)
	mw := pm.meta[pfn : pfn+n]
	for i := range mw {
		mw[i] = 0
	}
	pm.markDirty(pfn, n)
}

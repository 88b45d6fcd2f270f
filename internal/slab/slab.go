// Package slab implements a small-object allocator in the style of the
// Linux kernel's slab/SLUB: size-class caches pack kernel objects into
// pages obtained from the page allocator. Slab is the paper's
// second-largest source of unmovable memory (Figure 6: ~12 %), and its
// defining pathology is modelled faithfully here: a slab page is
// unmovable for as long as *any* object in it lives, so one long-lived
// object (a dentry, a socket) pins an entire page — the mechanism that
// turns a trickle of immortal objects into a standing population of
// scattered unmovable pages on the Linux layout.
package slab

import (
	"fmt"
	"math/bits"

	"contiguitas/internal/kernel"
	"contiguitas/internal/mem"
)

// PageSource abstracts the page allocator a cache draws from; the
// simulated kernel satisfies it directly. Page reads a live handle's
// current record (its PFN moves when the kernel migrates the page).
type PageSource interface {
	Alloc(order int, mt mem.MigrateType, src mem.Source) (kernel.Handle, error)
	Free(h kernel.Handle) error
	Page(h kernel.Handle) kernel.Page
}

// slabPage is one backing page with its occupancy bitmap.
type slabPage struct {
	page kernel.Handle
	// used marks live object slots; one bit per slot.
	used []uint64
	live int
	// listIdx locates the page in the cache's partial list, or -1.
	listIdx int
}

// Obj is a handle to one allocated object.
type Obj struct {
	sp   *slabPage
	slot int
}

// Valid reports whether the handle refers to a live allocation.
func (o Obj) Valid() bool { return o.sp != nil }

// Cache is one size class (a kmem_cache).
type Cache struct {
	name     string
	objSize  int
	perPage  int
	src      PageSource
	gfpOrder int

	// partial holds pages with at least one free slot; fully occupied
	// pages are off-list and identified by listIdx == -1, so no separate
	// full set is needed.
	partial []*slabPage

	// Stats.
	Objects    int
	PagesHeld  int
	PagesGrown uint64
	PagesFreed uint64
	AllocCalls uint64
	FreeCalls  uint64

	// restoreIdx is the transient PFN → page index a checkpoint restore
	// builds (see snapshot.go); nil outside a restore window.
	restoreIdx map[uint64]*slabPage
}

// NewCache builds a size class. Object sizes above half a page grow the
// cache with higher-order pages, like SLUB's calculate_order. A
// non-positive object size returns ErrBadObjectSize.
func NewCache(name string, objSize int, src PageSource) (*Cache, error) {
	if objSize <= 0 {
		return nil, fmt.Errorf("%w: cache %q size %d", ErrBadObjectSize, name, objSize)
	}
	order := 0
	pageBytes := mem.PageSize
	for objSize > pageBytes/2 && order < 3 {
		order++
		pageBytes *= 2
	}
	perPage := pageBytes / objSize
	if perPage < 1 {
		perPage = 1
	}
	return &Cache{
		name:     name,
		objSize:  objSize,
		perPage:  perPage,
		src:      src,
		gfpOrder: order,
	}, nil
}

// Name returns the cache's name.
func (c *Cache) Name() string { return c.name }

// ObjSize returns the size class in bytes.
func (c *Cache) ObjSize() int { return c.objSize }

// ObjectsPerPage returns the packing density.
func (c *Cache) ObjectsPerPage() int { return c.perPage }

// Alloc returns one object, growing the cache by a page when every
// existing slab is full.
func (c *Cache) Alloc() (Obj, error) {
	c.AllocCalls++
	if len(c.partial) == 0 {
		if err := c.grow(); err != nil {
			return Obj{}, err
		}
	}
	sp := c.partial[len(c.partial)-1]
	slot := sp.findFree()
	if slot < 0 {
		// Provably unreachable: a page is removed from the partial list
		// the moment its last slot fills (Alloc below) and re-added the
		// moment a slot frees (Free), so every listed page has a free
		// slot by construction.
		panic("slab: partial page without a free slot")
	}
	sp.used[slot/64] |= 1 << uint(slot%64)
	sp.live++
	c.Objects++
	if sp.live == c.perPage {
		c.removePartial(sp)
	}
	return Obj{sp: sp, slot: slot}, nil
}

// Free releases an object. When its page empties, the page returns to
// the page allocator — only then does the memory stop being unmovable.
// Invalid handles and double frees return typed errors with the cache
// untouched.
func (c *Cache) Free(o Obj) error {
	if !o.Valid() {
		return fmt.Errorf("%w: cache %s", ErrInvalidHandle, c.name)
	}
	c.FreeCalls++
	sp := o.sp
	mask := uint64(1) << uint(o.slot%64)
	if sp.used[o.slot/64]&mask == 0 {
		return fmt.Errorf("%w: cache %s slot %d", ErrDoubleFree, c.name, o.slot)
	}
	sp.used[o.slot/64] &^= mask
	sp.live--
	c.Objects--
	if sp.listIdx < 0 {
		// The page was full; it has a free slot again.
		c.addPartial(sp)
	}
	if sp.live == 0 {
		c.removePartial(sp)
		if err := c.src.Free(sp.page); err != nil {
			// The kernel page was validated when grow obtained it; a
			// failing free means corrupt bookkeeping, not a recoverable
			// caller mistake.
			panic("slab: invariant violation: " + err.Error())
		}
		c.PagesHeld--
		c.PagesFreed++
	}
	return nil
}

// grow obtains one more backing page.
func (c *Cache) grow() error {
	p, err := c.src.Alloc(c.gfpOrder, mem.MigrateUnmovable, mem.SrcSlab)
	if err != nil {
		return fmt.Errorf("slab %s: grow: %w", c.name, err)
	}
	sp := &slabPage{
		page: p,
		used: make([]uint64, (c.perPage+63)/64),
	}
	c.addPartial(sp)
	c.PagesHeld++
	c.PagesGrown++
	return nil
}

func (c *Cache) addPartial(sp *slabPage) {
	sp.listIdx = len(c.partial)
	c.partial = append(c.partial, sp)
}

func (c *Cache) removePartial(sp *slabPage) {
	i := sp.listIdx
	last := len(c.partial) - 1
	if i != last {
		moved := c.partial[last]
		c.partial[i] = moved
		moved.listIdx = i
	}
	c.partial = c.partial[:last]
	sp.listIdx = -1
}

// findFree returns the first free slot index, or -1.
func (sp *slabPage) findFree() int {
	for w, word := range sp.used {
		if inv := ^word; inv != 0 {
			slot := w*64 + bits.TrailingZeros64(inv)
			return slot
		}
	}
	return -1
}

// Frames returns the 4 KB frames currently held as backing pages (each
// backing page spans 2^gfpOrder frames).
func (c *Cache) Frames() int { return c.PagesHeld << c.gfpOrder }

// Utilization is live objects over capacity across held pages — the
// packing efficiency whose complement is the internal fragmentation
// that keeps nearly-empty pages pinned.
func (c *Cache) Utilization() float64 {
	if c.PagesHeld == 0 {
		return 0
	}
	return float64(c.Objects) / float64(c.PagesHeld*c.perPage)
}

// Manager is a set of standard size classes, like /proc/slabinfo's
// kmalloc caches plus the named object caches networking and VFS churn.
type Manager struct {
	caches []*Cache
}

// StandardClasses mirrors the object sizes that dominate kernel slab
// usage: sk_buff heads, dentries, inodes, and the kmalloc ladder.
var StandardClasses = []struct {
	Name string
	Size int
}{
	{"kmalloc-64", 64},
	{"kmalloc-192", 192},
	{"skbuff_head", 256},
	{"dentry", 320},
	{"sock", 768},
	{"inode", 1024},
	{"kmalloc-2k", 2048},
}

// NewManager builds the standard caches over one page source.
func NewManager(src PageSource) *Manager {
	m := &Manager{}
	for _, cl := range StandardClasses {
		c, err := NewCache(cl.Name, cl.Size, src)
		if err != nil {
			// Provably unreachable: StandardClasses sizes are positive
			// compile-time constants.
			panic(err)
		}
		m.caches = append(m.caches, c)
	}
	return m
}

// Cache returns the i-th class.
func (m *Manager) Cache(i int) *Cache { return m.caches[i] }

// NumCaches returns the class count.
func (m *Manager) NumCaches() int { return len(m.caches) }

// PagesHeld sums backing frames across classes.
func (m *Manager) PagesHeld() int {
	n := 0
	for _, c := range m.caches {
		n += c.Frames()
	}
	return n
}

// Objects sums live objects across classes.
func (m *Manager) Objects() int {
	n := 0
	for _, c := range m.caches {
		n += c.Objects
	}
	return n
}

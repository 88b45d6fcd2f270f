package slab

import (
	"fmt"
	"sort"

	"contiguitas/internal/kernel"
)

// Checkpoint/restore for slab caches.
//
// A cache tracks only its partial pages; full pages are off-list and
// reachable solely through the Obj handles its callers hold. ExportState
// therefore takes the caller's live handles and discovers full pages
// through them. Restore rebuilds the partial list in exact serialized
// order (Alloc pops from the slice end, so order is behavior), recreates
// full pages, and keeps a temporary PFN index so callers can rehydrate
// their Obj handles with ObjAt before EndRestore drops it.

// SlabPageState is one serialized backing page.
type SlabPageState struct {
	PFN  uint64 // head PFN of the kernel page backing this slab
	Used []uint64
	Live int
	// Partial is true when the page sits on the partial list; such
	// pages appear in CacheState.Pages in exact partial-list order,
	// before any full pages.
	Partial bool
}

// CacheState is one serialized size class. Geometry (name, object size,
// packing) is configuration re-created by NewCache/NewManager, not
// state; only occupancy and counters are serialized.
type CacheState struct {
	Name string
	// Pages lists partial pages first (in partial-list order), then
	// full pages sorted by PFN for determinism.
	Pages []SlabPageState

	Objects    int
	PagesHeld  int
	PagesGrown uint64
	PagesFreed uint64
	AllocCalls uint64
	FreeCalls  uint64
}

// ExportState serializes the cache. liveObjs must include every handle
// the caller still holds (duplicates and handles from other caches are
// ignored); they are how full pages — invisible to the cache itself —
// are found.
func (c *Cache) ExportState(liveObjs []Obj) CacheState {
	st := CacheState{
		Name:       c.name,
		Objects:    c.Objects,
		PagesHeld:  c.PagesHeld,
		PagesGrown: c.PagesGrown,
		PagesFreed: c.PagesFreed,
		AllocCalls: c.AllocCalls,
		FreeCalls:  c.FreeCalls,
	}
	seen := make(map[*slabPage]bool, len(c.partial))
	for _, sp := range c.partial {
		seen[sp] = true
		st.Pages = append(st.Pages, c.exportPage(sp, true))
	}
	var full []*slabPage
	for _, o := range liveObjs {
		if o.sp == nil || seen[o.sp] || o.sp.listIdx >= 0 {
			continue
		}
		// Only adopt pages that belong to this cache: a full page's
		// capacity matches the cache's bitmap geometry and its handle
		// appears once.
		if !ownsPage(c, o.sp) {
			continue
		}
		seen[o.sp] = true
		full = append(full, o.sp)
	}
	sort.Slice(full, func(i, j int) bool { return c.pfnOf(full[i]) < c.pfnOf(full[j]) })
	for _, sp := range full {
		st.Pages = append(st.Pages, c.exportPage(sp, false))
	}
	return st
}

// pfnOf returns the current head PFN of a slab's backing page.
func (c *Cache) pfnOf(sp *slabPage) uint64 { return c.src.Page(sp.page).PFN }

func (c *Cache) exportPage(sp *slabPage, partial bool) SlabPageState {
	return SlabPageState{
		PFN:     c.pfnOf(sp),
		Used:    append([]uint64(nil), sp.used...),
		Live:    sp.live,
		Partial: partial,
	}
}

// ownsPage reports whether sp plausibly belongs to c. Callers holding
// objects from several caches pass them all to each ExportState; pages
// are disambiguated by checking membership of sp in c via bitmap length
// and live count — but since two caches can share geometry, the caller
// should group handles per cache (workload.Runner does). This check is
// a safety net, not the primary discriminator.
func ownsPage(c *Cache, sp *slabPage) bool {
	return len(sp.used) == (c.perPage+63)/64 && sp.live <= c.perPage
}

// restoreIdx maps PFN → restored page between ImportState and
// EndRestore, letting callers rehydrate Obj handles with ObjAt.
//
// It lives on the Cache but is transient: EndRestore drops it.

// ImportState rebuilds the cache's occupancy from serialized state. The
// cache must be freshly constructed (same name/size/source class as the
// exported one) and empty. resolve maps a serialized head PFN to the
// restored kernel page handle backing it, reporting false when no live
// allocation starts there.
func (c *Cache) ImportState(st CacheState, resolve func(pfn uint64) (kernel.Handle, bool)) error {
	if c.Objects != 0 || len(c.partial) != 0 || c.PagesHeld != 0 {
		return fmt.Errorf("slab: ImportState into non-empty cache %s", c.name)
	}
	if st.Name != c.name {
		return fmt.Errorf("slab: ImportState cache %s from state for %s", c.name, st.Name)
	}
	c.restoreIdx = make(map[uint64]*slabPage, len(st.Pages))
	for _, ps := range st.Pages {
		page, ok := resolve(ps.PFN)
		if !ok {
			return fmt.Errorf("slab: restore %s: no live page at pfn %d", c.name, ps.PFN)
		}
		if len(ps.Used) != (c.perPage+63)/64 {
			return fmt.Errorf("slab: restore %s: bitmap length %d, want %d", c.name, len(ps.Used), (c.perPage+63)/64)
		}
		live := 0
		for _, w := range ps.Used {
			for ; w != 0; w &= w - 1 {
				live++
			}
		}
		if live != ps.Live || live > c.perPage {
			return fmt.Errorf("slab: restore %s pfn %d: bitmap holds %d live, serialized %d (perPage %d)",
				c.name, ps.PFN, live, ps.Live, c.perPage)
		}
		if ps.Partial != (live < c.perPage) {
			return fmt.Errorf("slab: restore %s pfn %d: partial flag %v disagrees with occupancy %d/%d",
				c.name, ps.PFN, ps.Partial, live, c.perPage)
		}
		sp := &slabPage{
			page:    page,
			used:    append([]uint64(nil), ps.Used...),
			live:    live,
			listIdx: -1,
		}
		if ps.Partial {
			c.addPartial(sp)
		}
		c.restoreIdx[ps.PFN] = sp
	}
	c.Objects = st.Objects
	c.PagesHeld = st.PagesHeld
	c.PagesGrown = st.PagesGrown
	c.PagesFreed = st.PagesFreed
	c.AllocCalls = st.AllocCalls
	c.FreeCalls = st.FreeCalls
	return nil
}

// ObjAt rehydrates an object handle from its serialized (page PFN,
// slot) coordinates. Valid only between ImportState and EndRestore.
func (c *Cache) ObjAt(pfn uint64, slot int) (Obj, error) {
	sp := c.restoreIdx[pfn]
	if sp == nil {
		return Obj{}, fmt.Errorf("slab: ObjAt %s: no restored page at pfn %d", c.name, pfn)
	}
	if slot < 0 || slot >= c.perPage || sp.used[slot/64]&(1<<uint(slot%64)) == 0 {
		return Obj{}, fmt.Errorf("slab: ObjAt %s pfn %d: slot %d not live", c.name, pfn, slot)
	}
	return Obj{sp: sp, slot: slot}, nil
}

// PageOf exposes an object's backing page head PFN and slot, the
// serialized coordinates ObjAt reverses.
func (c *Cache) PageOf(o Obj) (pfn uint64, slot int) {
	return c.pfnOf(o.sp), o.slot
}

// EndRestore drops the transient PFN index built by ImportState.
func (c *Cache) EndRestore() { c.restoreIdx = nil }

package kernel

import (
	"errors"
	"fmt"

	"contiguitas/internal/mem"
	"contiguitas/internal/pressure"
	"contiguitas/internal/psi"
	"contiguitas/internal/telemetry"
)

// ErrNoMemory is returned when an allocation cannot be satisfied even
// after reclaim, compaction, and (in ModeContiguitas) urgent expansion.
// The other failure-path sentinels live in errors.go.
var ErrNoMemory = errors.New("kernel: out of memory")

// Stall penalties charged to PSI, in fractions of a tick. Direct reclaim
// and compaction put the allocating task to sleep briefly; a hard failure
// represents a much longer stall (OOM handling, retry loops).
const (
	stallDirectReclaim = 0.05
	stallCompaction    = 0.10
	stallFailure       = 1.0
)

// Alloc allocates a block of 2^order frames of the given migratetype and
// source, returning a relocatable handle. The fast path is a plain buddy
// allocation in the class's region; the slow path mirrors the kernel:
// direct reclaim, then compaction for high-order movable requests, then
// (ModeContiguitas, unmovable classes) an urgent boundary expansion.
func (k *Kernel) Alloc(order int, mt mem.MigrateType, src mem.Source) (Handle, error) {
	p, err := k.alloc(order, mt, src)
	if err != nil {
		return Handle{}, err
	}
	return p.Handle(), nil
}

// alloc is Alloc returning the new allocation's record.
func (k *Kernel) alloc(order int, mt mem.MigrateType, src mem.Source) (*Page, error) {
	if k.shedAllocation(mt) {
		// Admission control: fail fast with no stall and no reclaim —
		// shedding exists precisely to stop failing requests from adding
		// pressure. Not counted as AllocFail; shed requests never entered
		// the allocator.
		k.AllocShed++
		if k.tp.Enabled() {
			k.tp.Emit(k.tick, telemetry.EvAllocShed,
				uint64(order), uint64(mt), uint64(k.gatePSI.Pressure()*1000))
		}
		return nil, k.errAllocShed()
	}
	b := k.buddyFor(mt)
	region := k.regionFor(mt)

	var stealConv, stealPoll uint64
	if k.tp.Enabled() {
		stealConv, stealPoll = b.StealsConverting, b.StealsPolluting
	}
	pfn, ok := b.Alloc(order, mt, src)
	if !ok {
		k.psi.AddStall(region, stallDirectReclaim)
		k.DirectReclaim++
		k.esc.Note(pressure.RungReclaim, k.tick)
		want := mem.OrderPages(order)
		freed := k.reclaim(b, want)
		if k.tp.Enabled() {
			k.tp.Emit(k.tick, telemetry.EvDirectReclaim, uint64(region), want, freed)
		}
		pfn, ok = b.Alloc(order, mt, src)
	}
	if !ok && order > 0 && mt == mem.MigrateMovable {
		k.psi.AddStall(region, stallCompaction)
		k.esc.Note(pressure.RungCompact, k.tick)
		if cpfn, cok := k.Compact(b, order, mt, src); cok {
			pfn, ok = cpfn, true
		}
	}
	if !ok && k.cfg.Mode == ModeContiguitas && mt != mem.MigrateMovable {
		// Urgent expansion: grow the unmovable region enough to serve
		// the request, then retry.
		need := mem.OrderPages(order) * 2
		if k.ExpandUnmovable(need) > 0 {
			pfn, ok = b.Alloc(order, mt, src)
		}
	}
	if k.tp.Enabled() {
		// Fallback stealing happens inside the buddy's Alloc; attribute
		// any steals the attempts above triggered to this allocation.
		if dc, dp := b.StealsConverting-stealConv, b.StealsPolluting-stealPoll; dc|dp != 0 {
			k.tp.Emit(k.tick, telemetry.EvFallbackSteal, pfn, dc, dp)
		}
	}
	var lt ladderTrace
	if !ok && k.pcfg != nil {
		pfn, ok = k.pressureLadder(b, region, order, mt, src, &lt)
		if k.histAllocStall != nil {
			k.histAllocStall.Observe(lt.stallCycles)
		}
	}
	if !ok {
		k.psi.AddStall(region, stallFailure)
		k.AllocFail++
		if k.tp.Enabled() {
			k.tp.Emit(k.tick, telemetry.EvAllocFail, uint64(order), uint64(mt), uint64(region))
		}
		if k.pcfg != nil {
			return nil, k.pressureErr(order, mt, &lt)
		}
		return nil, k.errNoMemory(order, mt)
	}
	k.AllocOK++
	if k.tp.Enabled() {
		k.tp.Emit(k.tick, telemetry.EvAlloc, pfn, uint64(order), uint64(mt))
	}
	p := k.live.newSlot()
	p.PFN, p.Order, p.MT, p.Src, p.cacheIdx = pfn, int8(order), mt, src, -1
	k.live.set(pfn, p)
	if k.sink != nil && !k.inCacheAlloc {
		k.sink.OnAlloc(p, false)
	}
	return p, nil
}

// Free releases an allocation. Pinned pages must be unpinned first.
// Misuse is reported, not fatal: freeing the zero handle, a pinned page,
// or a stale handle (double free, reclaimed page-cache handle) returns
// a typed error and leaves the kernel untouched.
func (k *Kernel) Free(h Handle) error {
	p, err := k.resolve(h, "Free")
	if err != nil {
		return err
	}
	if p.Pinned {
		return fmt.Errorf("%w: Free of pfn %d; Unpin first", ErrPagePinned, p.PFN)
	}
	if k.tp.Enabled() {
		k.tp.Emit(k.tick, telemetry.EvFree, p.PFN, uint64(p.Order), uint64(p.MT))
	}
	if k.sink != nil {
		k.sink.OnFree(p)
	}
	if p.cacheIdx >= 0 {
		// Lazily detach from the reclaimable FIFO.
		k.reclaimable[p.cacheIdx] = noCacheEntry
		k.reclaimablePages -= p.Pages()
	}
	k.drop(k.owningBuddy(p.PFN), p)
	return nil
}

// drop retires a live allocation that has left (or never joined) the
// reclaimable FIFO: its frames return to buddy b and its slot is
// recycled, turning every handle to it stale.
func (k *Kernel) drop(b *mem.Buddy, p *Page) {
	k.live.del(p.PFN)
	mustFree(b, p.PFN)
	k.live.release(p)
}

// resolve returns the record a handle names, or ErrNilHandle /
// ErrStaleHandle naming the operation.
func (k *Kernel) resolve(h Handle, op string) (*Page, error) {
	if h == (Handle{}) {
		return nil, ErrNilHandle
	}
	p := k.live.lookup(h)
	if p == nil {
		return nil, fmt.Errorf("%w: %s of slot %d generation %d", ErrStaleHandle, op, h.slot, h.gen)
	}
	return p, nil
}

// errNoMemory returns the memoized allocation-failure error for the
// (order, migratetype) pair, formatting it on first use.
func (k *Kernel) errNoMemory(order int, mt mem.MigrateType) error {
	if err := k.noMemErr[order][mt]; err != nil {
		return err
	}
	err := fmt.Errorf("%w: order=%d mt=%v", ErrNoMemory, order, mt)
	k.noMemErr[order][mt] = err
	return err
}

// owningBuddy returns the buddy allocator whose range covers pfn.
func (k *Kernel) owningBuddy(pfn uint64) *mem.Buddy {
	if k.cfg.Mode == ModeLinux {
		return k.zone
	}
	if pfn < k.boundary {
		return k.unmov
	}
	return k.mov
}

// AllocPageCache allocates a droppable page-cache block. Page cache is
// movable (it migrates like user memory and lives in the movable region
// under Contiguitas) but also reclaimable: the kernel may free it at any
// time under pressure, so holders must treat the handle as advisory and
// check Live. Unmovable filesystem buffers are ordinary unmovable
// allocations, not page cache.
func (k *Kernel) AllocPageCache(order int, src mem.Source) (Handle, error) {
	k.inCacheAlloc = true
	p, err := k.alloc(order, mem.MigrateMovable, src)
	k.inCacheAlloc = false
	if err != nil {
		return Handle{}, err
	}
	p.cacheIdx = int32(len(k.reclaimable))
	k.reclaimable = append(k.reclaimable, uint32(p.PFN))
	k.reclaimablePages += p.Pages()
	if k.sink != nil {
		k.sink.OnAlloc(p, true)
	}
	return p.Handle(), nil
}

// Live reports whether the handle still owns memory (page-cache handles
// can be reclaimed behind the holder's back).
func (k *Kernel) Live(h Handle) bool { return k.live.lookup(h) != nil }

// Page returns a copy of the record a live handle names: its current
// PFN, order, migratetype, source and pin state. A stale or zero
// handle returns the zero Page; check Live first where the handle may
// have been reclaimed.
func (k *Kernel) Page(h Handle) Page {
	if p := k.live.lookup(h); p != nil {
		return *p
	}
	return Page{}
}

// Pin marks an allocation unmovable-in-place (DMA registration, RDMA,
// zero-copy send). Under ModeContiguitas, a movable-region page is first
// migrated into the unmovable region (§3.2: "Contiguitas first migrates
// them to the unmovable region and then marks them as unmovable"),
// avoiding dynamic pollution of the movable region. The migration is a
// software one — the page is not yet pinned, so access can be blocked.
func (k *Kernel) Pin(h Handle) error {
	p, err := k.resolve(h, "Pin")
	if err != nil {
		return err
	}
	if p.Pinned {
		return nil
	}
	if k.cfg.Mode == ModeContiguitas && p.PFN >= k.boundary {
		// Allocate a landing block in the unmovable region and move.
		dst, ok := k.unmov.Alloc(int(p.Order), mem.MigrateUnmovable, p.Src)
		if !ok {
			k.reclaim(k.unmov, p.Pages())
			dst, ok = k.unmov.Alloc(int(p.Order), mem.MigrateUnmovable, p.Src)
		}
		if !ok {
			if k.ExpandUnmovable(p.Pages()*2) > 0 {
				dst, ok = k.unmov.Alloc(int(p.Order), mem.MigrateUnmovable, p.Src)
			}
		}
		if !ok {
			k.psi.AddStall(psi.RegionUnmovable, stallFailure)
			return fmt.Errorf("%w: pin migration target order=%d", ErrNoMemory, p.Order)
		}
		if err := k.softwareMigrateTo(p, dst); err != nil {
			mustFree(k.unmov, dst)
			return fmt.Errorf("pin migration of pfn %d: %w", p.PFN, err)
		}
		p.MT = mem.MigrateUnmovable
		k.PinMigrations++
	}
	p.Pinned = true
	k.pm.SetPinned(p.PFN, true)
	if k.sink != nil {
		k.sink.OnPin(p)
	}
	return nil
}

// Unpin clears the pinned state. The page stays where it is; under
// ModeContiguitas it remains in the unmovable region until freed. A
// stale handle is a no-op.
func (k *Kernel) Unpin(h Handle) {
	p := k.live.lookup(h)
	if p == nil || !p.Pinned {
		return
	}
	p.Pinned = false
	k.pm.SetPinned(p.PFN, false)
	if k.sink != nil {
		k.sink.OnUnpin(p)
	}
}

// Package cache models the memory hierarchy of the paper's simulated
// platform (Table 1): per-core private L1/L2 caches kept coherent
// through an inclusive, sliced last-level cache with a directory, slices
// connected by a ring, DRAM behind it. Lines carry data (one 64-bit
// value per 64-byte line is enough to prove migration correctness), and
// every access returns both the value and its completion cycle, with
// per-slice occupancy modelling contention.
//
// The hierarchy exposes the exact hooks Contiguitas-HW (§3.3) needs:
//   - a Redirector consulted on the LLC path, so migration mappings can
//     redirect traffic line-by-line according to copy progress,
//   - noncacheable marking, bypassing private caches for pages under
//     migration in the noncacheable design point, and
//   - CollectAndInvalidate / WriteLLC / DropLLC, the primitives the
//     migration engine's BusRdX-and-copy sequence is built from.
package cache

import (
	"contiguitas/internal/hw"
	"contiguitas/internal/hw/dram"
)

// State is a private-cache line's coherence state (MESI without E→M
// subtleties: Exclusive upgrades silently).
type State uint8

const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

// Redirector lets Contiguitas-HW interpose on the LLC path.
type Redirector interface {
	// Translate returns the line address whose data must serve an
	// access to line, given migration progress. It may have side
	// effects: the cacheable design point invalidates opposite-mapping
	// private copies here to preserve the single-mapping invariant.
	// The returned extra cycles account for that work.
	Translate(line uint64) (canonical uint64, extraCycles uint64)
	// Noncacheable reports whether the line must bypass private caches
	// (the noncacheable design point for pages under migration).
	Noncacheable(line uint64) bool
}

// privEntry is one private (L2) line.
type privEntry struct {
	line  uint64
	state State
	data  uint64
	lru   uint64
	valid bool
}

// tagEntry is one L1 tag (data lives at L2).
type tagEntry struct {
	line  uint64
	lru   uint64
	valid bool
}

// private is one core's L1+L2 cache pair. L1 is a tag-only subset used
// for hit-latency modelling; coherence state and data live in L2.
type private struct {
	l1Sets  [][]tagEntry
	l2Sets  [][]privEntry
	l1Mask  uint64
	l2Mask  uint64
	lruTick uint64
}

func newPrivate(p hw.Params) *private {
	l1Lines := uint64(p.L1SizeKB) * 1024 / hw.LineBytes
	l2Lines := uint64(p.L2SizeKB) * 1024 / hw.LineBytes
	l1Sets := l1Lines / uint64(p.L1Ways)
	l2Sets := l2Lines / uint64(p.L2Ways)
	pr := &private{
		l1Sets: make([][]tagEntry, l1Sets),
		l2Sets: make([][]privEntry, l2Sets),
		l1Mask: l1Sets - 1,
		l2Mask: l2Sets - 1,
	}
	for i := range pr.l1Sets {
		pr.l1Sets[i] = make([]tagEntry, p.L1Ways)
	}
	for i := range pr.l2Sets {
		pr.l2Sets[i] = make([]privEntry, p.L2Ways)
	}
	return pr
}

func (pr *private) tick() uint64 { pr.lruTick++; return pr.lruTick }

func (pr *private) l1Lookup(line uint64) *tagEntry {
	set := pr.l1Sets[line&pr.l1Mask]
	for i := range set {
		if set[i].valid && set[i].line == line {
			return &set[i]
		}
	}
	return nil
}

func (pr *private) l2Lookup(line uint64) *privEntry {
	set := pr.l2Sets[line&pr.l2Mask]
	for i := range set {
		if set[i].valid && set[i].line == line {
			return &set[i]
		}
	}
	return nil
}

// l1Fill inserts the line into L1 tags (LRU victim drops silently).
func (pr *private) l1Fill(line uint64) {
	set := pr.l1Sets[line&pr.l1Mask]
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	set[victim] = tagEntry{line: line, lru: pr.tick(), valid: true}
}

func (pr *private) l1Drop(line uint64) {
	if e := pr.l1Lookup(line); e != nil {
		e.valid = false
	}
}

// llcEntry is one LLC line with directory state.
type llcEntry struct {
	line    uint64
	data    uint64
	dirty   bool
	sharers uint64 // bitmask of cores holding the line
	ownerM  int8   // core holding it Modified, or -1
	lru     uint64
	valid   bool
}

// slice is one LLC slice.
type slice struct {
	sets      [][]llcEntry
	mask      uint64
	lruTick   uint64
	busyUntil uint64
}

func newSlice(p hw.Params) *slice {
	lines := uint64(p.L3SliceKB) * 1024 / hw.LineBytes
	sets := lines / uint64(p.L3Ways)
	s := &slice{sets: make([][]llcEntry, sets), mask: sets - 1}
	for i := range s.sets {
		s.sets[i] = make([]llcEntry, p.L3Ways)
	}
	return s
}

func (s *slice) tick() uint64 { s.lruTick++; return s.lruTick }

func (s *slice) lookup(line uint64) *llcEntry {
	set := s.sets[(line/8)&s.mask] // slice-local set index
	for i := range set {
		if set[i].valid && set[i].line == line {
			return &set[i]
		}
	}
	return nil
}

// Stats aggregates hierarchy behaviour.
type Stats struct {
	Loads, Stores        uint64
	L1Hits, L2Hits       uint64
	LLCHits, LLCMiss     uint64
	Writebacks           uint64
	Invalidations        uint64
	NoncacheableAccesses uint64
}

// Hierarchy is the full cache system for one machine.
type Hierarchy struct {
	P      hw.Params
	priv   []*private
	slices []*slice
	dram   *dram.DRAM
	// mem is the backing-store value of every line ever written back or
	// never cached (zero default).
	mem map[uint64]uint64

	red Redirector

	Stats
}

// New builds the hierarchy from Table 1 parameters.
func New(p hw.Params, d *dram.DRAM) *Hierarchy {
	h := &Hierarchy{P: p, dram: d, mem: make(map[uint64]uint64)}
	for i := 0; i < p.Cores; i++ {
		h.priv = append(h.priv, newPrivate(p))
	}
	for i := 0; i < p.Cores; i++ { // one slice per core
		h.slices = append(h.slices, newSlice(p))
	}
	return h
}

// SetRedirector attaches the Contiguitas-HW interposer (nil detaches).
func (h *Hierarchy) SetRedirector(r Redirector) { h.red = r }

// SliceOf is the slice-selection hash f: a XOR fold of the line address,
// the kind of simple gate-level hash real processors use (§3.3).
func (h *Hierarchy) SliceOf(line uint64) int {
	x := line ^ (line >> 7) ^ (line >> 13)
	return int(x % uint64(len(h.slices)))
}

// ringHops returns the hop count between a core and a slice on the ring.
func (h *Hierarchy) ringHops(core, sl int) uint64 {
	n := len(h.slices)
	d := core - sl
	if d < 0 {
		d = -d
	}
	if n-d < d {
		d = n - d
	}
	return uint64(d)
}

// Access performs one load or store by a core at physical address pa,
// starting at cycle now. It returns the observed value (for loads; for
// stores, the stored value) and the completion cycle.
func (h *Hierarchy) Access(core int, pa uint64, isWrite bool, val uint64, now uint64) (uint64, uint64) {
	line := hw.LineAddr(pa)
	if isWrite {
		h.Stores++
	} else {
		h.Loads++
	}

	if h.red != nil && h.red.Noncacheable(line) {
		h.NoncacheableAccesses++
		return h.noncacheableAccess(core, line, isWrite, val, now)
	}

	pr := h.priv[core]
	if e := pr.l2Lookup(line); e != nil {
		lat := h.P.L2Latency
		if l1e := pr.l1Lookup(line); l1e != nil {
			lat = h.P.L1Latency
			l1e.lru = pr.tick()
			h.L1Hits++
		} else {
			pr.l1Fill(line)
			h.L2Hits++
		}
		e.lru = pr.tick()
		if !isWrite {
			return e.data, now + lat
		}
		if e.state == Modified || e.state == Exclusive {
			e.state = Modified
			e.data = val
			h.setOwnerM(line, core)
			return val, now + lat
		}
		// Shared: upgrade through the LLC (invalidate other sharers).
		done := h.llcUpgrade(core, line, now+lat)
		e.state = Modified
		e.data = val
		h.setOwnerM(line, core)
		return val, done
	}

	// Private miss: fetch through the LLC.
	value, done := h.llcFetch(core, line, isWrite, val, now+h.P.L2Latency)
	st := Shared
	if isWrite {
		st = Modified
		value = val
	}
	h.privFill(core, line, st, value)
	return value, done
}

// privFill inserts a line into a core's L2 (and L1 tags), handling the
// eviction writeback and directory update.
func (h *Hierarchy) privFill(core int, line uint64, st State, data uint64) {
	pr := h.priv[core]
	set := pr.l2Sets[line&pr.l2Mask]
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	if v := &set[victim]; v.valid {
		h.evictPrivate(core, v)
	}
	set[victim] = privEntry{line: line, state: st, data: data, lru: pr.tick(), valid: true}
	pr.l1Fill(line)
	// Directory update.
	e := h.llcLineEntry(line, true)
	e.sharers |= 1 << uint(core)
	if st == Modified {
		e.ownerM = int8(core)
	}
}

// evictPrivate removes a private line, writing Modified data back to the
// LLC and updating the directory.
func (h *Hierarchy) evictPrivate(core int, v *privEntry) {
	line := v.line
	h.priv[core].l1Drop(line)
	e := h.llcLineEntry(line, false)
	if e != nil {
		e.sharers &^= 1 << uint(core)
		if v.state == Modified {
			e.data = v.data
			e.dirty = true
			h.Writebacks++
		}
		if e.ownerM == int8(core) {
			e.ownerM = -1
		}
	} else if v.state == Modified {
		// Not in LLC (should not happen with inclusion, but be safe).
		h.mem[line] = v.data
		h.Writebacks++
	}
	v.valid = false
}

// llcLineEntry finds (or allocates) the LLC entry for a line.
func (h *Hierarchy) llcLineEntry(line uint64, alloc bool) *llcEntry {
	sl := h.slices[h.SliceOf(line)]
	if e := sl.lookup(line); e != nil {
		return e
	}
	if !alloc {
		return nil
	}
	return h.llcAlloc(sl, line, h.mem[line])
}

// llcAlloc inserts a line into a slice, evicting the LRU way (with
// back-invalidation of private copies to preserve inclusion).
func (h *Hierarchy) llcAlloc(sl *slice, line uint64, data uint64) *llcEntry {
	set := sl.sets[(line/8)&sl.mask]
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	if v := &set[victim]; v.valid {
		h.llcEvict(v)
	}
	set[victim] = llcEntry{line: line, data: data, ownerM: -1, lru: sl.tick(), valid: true}
	return &set[victim]
}

// llcEvict removes an LLC entry: private copies are collected (modified
// data wins) and the line written to memory if dirty.
func (h *Hierarchy) llcEvict(v *llcEntry) {
	data, dirty := v.data, v.dirty
	for core := 0; core < h.P.Cores; core++ {
		if v.sharers&(1<<uint(core)) == 0 {
			continue
		}
		pr := h.priv[core]
		if e := pr.l2Lookup(v.line); e != nil {
			if e.state == Modified {
				data = e.data
				dirty = true
			}
			e.valid = false
			pr.l1Drop(v.line)
			h.Invalidations++
		}
	}
	if dirty {
		h.mem[v.line] = data
		h.Writebacks++
	}
	v.valid = false
}

// translate applies the redirector, if any.
func (h *Hierarchy) translate(line uint64) (uint64, uint64) {
	if h.red == nil {
		return line, 0
	}
	return h.red.Translate(line)
}

// llcFetch services a private miss: the LLC (or DRAM) supplies the data;
// coherence actions run against other cores. Returns value and done.
func (h *Hierarchy) llcFetch(core int, line uint64, forWrite bool, wval uint64, now uint64) (uint64, uint64) {
	canonical, extra := h.translate(line)
	if canonical != line {
		// The private fill will be tagged under the requested address;
		// ensure its directory entry exists before taking pointers into
		// the slice arrays (allocation may evict).
		h.llcLineEntry(line, true)
	}
	sl := h.slices[h.SliceOf(canonical)]
	start := now + extra + h.ringHops(core, h.SliceOf(canonical))*h.P.RingHopCycles
	if sl.busyUntil > start {
		start = sl.busyUntil
	}
	done := start + h.P.L3Latency
	sl.busyUntil = start + 4 // slice occupancy per request

	e := sl.lookup(canonical)
	if e == nil {
		h.LLCMiss++
		e = h.llcAlloc(sl, canonical, 0)
		e.data = h.mem[canonical]
		done = h.dram.Access(canonical<<hw.LineShift, done)
	} else {
		h.LLCHits++
	}

	// Coherence runs against the canonical entry AND, under active
	// redirection, the requested line's own entry: private copies made
	// through this same mapping are tagged (and directory-listed) under
	// the requested address, not the canonical one.
	val := e.data
	sweep := []struct {
		addr  uint64
		entry *llcEntry
	}{{canonical, e}}
	if canonical != line {
		// Non-allocating: if the entry was evicted while the canonical
		// entry was allocated, its private copies were back-invalidated
		// and there is nothing to sweep.
		if le := h.llcLineEntry(line, false); le != nil {
			sweep = append(sweep, struct {
				addr  uint64
				entry *llcEntry
			}{line, le})
		}
	}
	for _, s := range sweep {
		se := s.entry
		if se.ownerM >= 0 && int(se.ownerM) != core {
			owner := int(se.ownerM)
			if oe := h.priv[owner].l2Lookup(s.addr); oe != nil && oe.state == Modified {
				val = oe.data
				e.data = oe.data
				e.dirty = true
				if forWrite {
					oe.valid = false
					h.priv[owner].l1Drop(s.addr)
					se.sharers &^= 1 << uint(owner)
					h.Invalidations++
				} else {
					oe.state = Shared
				}
				done += h.P.L2Latency // owner probe
			}
			se.ownerM = -1
		}
		if forWrite {
			for c := 0; c < h.P.Cores; c++ {
				if c == core || se.sharers&(1<<uint(c)) == 0 {
					continue
				}
				if oe := h.priv[c].l2Lookup(s.addr); oe != nil {
					oe.valid = false
					h.priv[c].l1Drop(s.addr)
					h.Invalidations++
				}
				se.sharers &^= 1 << uint(c)
				done += h.P.RingHopCycles
			}
		}
	}
	if forWrite {
		e.data = wval
		e.dirty = true
		val = wval
	}
	e.lru = sl.tick()
	return val, done
}

// llcUpgrade handles a Shared→Modified upgrade: other sharers of the
// canonical line are invalidated.
func (h *Hierarchy) llcUpgrade(core int, line uint64, now uint64) uint64 {
	canonical, extra := h.translate(line)
	slIdx := h.SliceOf(canonical)
	sl := h.slices[slIdx]
	start := now + extra + h.ringHops(core, slIdx)*h.P.RingHopCycles
	if sl.busyUntil > start {
		start = sl.busyUntil
	}
	done := start + h.P.L3Latency
	sl.busyUntil = start + 4
	if e := sl.lookup(canonical); e != nil {
		for c := 0; c < h.P.Cores; c++ {
			if c == core || e.sharers&(1<<uint(c)) == 0 {
				continue
			}
			if oe := h.priv[c].l2Lookup(canonical); oe != nil {
				oe.valid = false
				h.priv[c].l1Drop(canonical)
				h.Invalidations++
			}
			e.sharers &^= 1 << uint(c)
			done += h.P.RingHopCycles
		}
		e.ownerM = int8(core)
	}
	// The requesting core may hold the line under a redirected address;
	// invalidate sharers of that entry too.
	if canonical != line {
		if e := h.llcLineEntry(line, false); e != nil {
			for c := 0; c < h.P.Cores; c++ {
				if c == core || e.sharers&(1<<uint(c)) == 0 {
					continue
				}
				if oe := h.priv[c].l2Lookup(line); oe != nil {
					oe.valid = false
					h.priv[c].l1Drop(line)
					h.Invalidations++
				}
				e.sharers &^= 1 << uint(c)
			}
		}
	}
	return done
}

// setOwnerM records core as the modified owner of the line's canonical
// entry (called on silent E→M upgrades and store hits).
func (h *Hierarchy) setOwnerM(line uint64, core int) {
	canonical, _ := h.translate(line)
	if e := h.llcLineEntry(canonical, false); e != nil {
		e.ownerM = int8(core)
	}
	if canonical != line {
		if e := h.llcLineEntry(line, false); e != nil {
			e.ownerM = int8(core)
		}
	}
}

// noncacheableAccess bypasses private caches: data lives at the
// canonical LLC location (filled from memory on miss).
func (h *Hierarchy) noncacheableAccess(core int, line uint64, isWrite bool, val uint64, now uint64) (uint64, uint64) {
	canonical, extra := h.translate(line)
	slIdx := h.SliceOf(canonical)
	sl := h.slices[slIdx]
	start := now + extra + h.P.L2Latency + h.ringHops(core, slIdx)*h.P.RingHopCycles
	if sl.busyUntil > start {
		start = sl.busyUntil
	}
	done := start + h.P.L3Latency
	sl.busyUntil = start + 4

	e := sl.lookup(canonical)
	if e == nil {
		h.LLCMiss++
		e = h.llcAlloc(sl, canonical, h.mem[canonical])
		done = h.dram.Access(canonical<<hw.LineShift, done)
	} else {
		h.LLCHits++
	}
	e.lru = sl.tick()
	if isWrite {
		e.data = val
		e.dirty = true
		return val, done
	}
	return e.data, done
}

// CollectAndInvalidate implements the private-cache half of a BusRdX:
// every private copy of the line is invalidated and the newest value
// returned (modified private copy wins over the LLC, which wins over
// memory). The LLC entry itself is left in place, updated with the
// newest data.
func (h *Hierarchy) CollectAndInvalidate(line uint64) (val uint64, wasModified bool, cycles uint64) {
	e := h.llcLineEntry(line, false)
	if e != nil {
		val = e.data
	} else {
		val = h.mem[line]
	}
	cycles = h.P.L3Latency
	if e != nil {
		for c := 0; c < h.P.Cores; c++ {
			if e.sharers&(1<<uint(c)) == 0 {
				continue
			}
			pr := h.priv[c]
			if pe := pr.l2Lookup(line); pe != nil {
				if pe.state == Modified {
					val = pe.data
					wasModified = true
				}
				pe.valid = false
				pr.l1Drop(line)
				h.Invalidations++
				cycles += h.P.RingHopCycles
			}
			e.sharers &^= 1 << uint(c)
		}
		e.ownerM = -1
		e.data = val
		if wasModified {
			e.dirty = true
		}
	}
	return val, wasModified, cycles
}

// HasModifiedPrivate reports whether some core holds the line Modified.
func (h *Hierarchy) HasModifiedPrivate(line uint64) bool {
	for c := 0; c < h.P.Cores; c++ {
		if e := h.priv[c].l2Lookup(line); e != nil && e.state == Modified {
			return true
		}
	}
	return false
}

// HasPrivate reports whether any core caches the line.
func (h *Hierarchy) HasPrivate(line uint64) bool {
	for c := 0; c < h.P.Cores; c++ {
		if h.priv[c].l2Lookup(line) != nil {
			return true
		}
	}
	return false
}

// WriteLLC writes a value into the line's LLC entry (allocating it),
// marking it dirty. Used by the migration copy engine.
func (h *Hierarchy) WriteLLC(line uint64, val uint64) uint64 {
	sl := h.slices[h.SliceOf(line)]
	e := sl.lookup(line)
	if e == nil {
		e = h.llcAlloc(sl, line, val)
	}
	e.data = val
	e.dirty = true
	e.lru = sl.tick()
	return h.P.L3Latency
}

// DropLLC invalidates the line at the LLC (collecting private copies
// first) without writing it back — used to retire source-page lines once
// a migration completes.
func (h *Hierarchy) DropLLC(line uint64) {
	if e := h.llcLineEntry(line, false); e != nil {
		h.llcEvict(e)
		// llcEvict wrote dirty data to memory; that is correct for
		// retirement (the frame may be reused).
	}
}

// AddSliceBusy charges copy-engine occupancy to a slice, modelling the
// bandwidth the migration engine steals from demand requests.
func (h *Hierarchy) AddSliceBusy(sliceIdx int, from, dur uint64) {
	sl := h.slices[sliceIdx]
	if sl.busyUntil < from {
		sl.busyUntil = from
	}
	sl.busyUntil += dur
}

// NumSlices returns the slice count.
func (h *Hierarchy) NumSlices() int { return len(h.slices) }

package kernel

import (
	"contiguitas/internal/mem"
	"contiguitas/internal/telemetry"
)

// Mapping is a user-space memory area backed by a mix of page sizes —
// the outcome of THP's opportunistic huge-page allocation. Blocks holds
// the kernel handles backing the area.
type Mapping struct {
	Bytes  uint64
	Blocks []Handle

	// small counts the base-page blocks; tailSmall reports that they
	// all sit at the end of Blocks, the layout Promote keeps. Together
	// they let Promote find the base pages without reading any block's
	// record. A Mapping built outside the kernel (a restore) has
	// neither set, so its first Promote partitions it.
	small     int
	tailSmall bool
}

// add appends a freshly allocated block of the given order.
func (m *Mapping) add(h Handle, order int) {
	if order == mem.Order4K {
		m.small++
	} else if m.small > 0 {
		m.tailSmall = false
	}
	m.Blocks = append(m.Blocks, h)
}

// AllocUser allocates user anonymous memory. With thp enabled it
// attempts 2 MB blocks first (Transparent Huge Pages with THP=always,
// §2.1) and falls back to 4 KB pages per chunk; without THP everything
// is 4 KB. On failure the partial mapping is released.
func (k *Kernel) AllocUser(bytes uint64, thp bool) (*Mapping, error) {
	return k.AllocUserTHP(bytes, thp, false)
}

// AllocUserTHP additionally attempts 1 GB blocks when thp1G is set —
// the upstream-in-progress 1 GB THP support the paper's §6 discusses as
// the natural next step once Contiguitas makes gigabyte contiguity
// reliable. The fallback ladder is 1 GB → 2 MB → 4 KB.
func (k *Kernel) AllocUserTHP(bytes uint64, thp, thp1G bool) (*Mapping, error) {
	m := &Mapping{Bytes: bytes, tailSmall: true}
	remaining := mem.BytesToPages(bytes)
	for remaining > 0 {
		if thp1G && remaining >= mem.OrderPages(mem.Order1G) {
			if p, err := k.Alloc(mem.Order1G, mem.MigrateMovable, mem.SrcUser); err == nil {
				m.add(p, mem.Order1G)
				remaining -= mem.OrderPages(mem.Order1G)
				continue
			}
		}
		if thp && remaining >= mem.PageblockPages {
			if p, err := k.Alloc(mem.Order2M, mem.MigrateMovable, mem.SrcUser); err == nil {
				m.add(p, mem.Order2M)
				remaining -= mem.PageblockPages
				continue
			}
			// The huge attempt failed: back the whole 2 MB extent with base
			// pages before retrying huge for the next extent. Falling back
			// one extent at a time (rather than one page) keeps exhausted
			// runs from re-walking the 2 MB slow path per base page.
			k.THPFallbacks++
			if k.tp.Enabled() {
				k.tp.Emit(k.tick, telemetry.EvTHPFallback, mem.Order2M, remaining, 0)
			}
			for i := 0; i < mem.PageblockPages; i++ {
				p, err := k.Alloc(mem.Order4K, mem.MigrateMovable, mem.SrcUser)
				if err != nil {
					k.FreeMapping(m)
					return nil, err
				}
				m.add(p, mem.Order4K)
				remaining--
			}
			continue
		}
		p, err := k.Alloc(mem.Order4K, mem.MigrateMovable, mem.SrcUser)
		if err != nil {
			k.FreeMapping(m)
			return nil, err
		}
		m.add(p, mem.Order4K)
		remaining--
	}
	return m, nil
}

// FreeMapping releases every block of the mapping.
func (k *Kernel) FreeMapping(m *Mapping) {
	for _, b := range m.Blocks {
		if k.Live(b) {
			k.Free(b)
		}
	}
	m.Blocks, m.small, m.tailSmall = nil, 0, true
}

// Promote runs a khugepaged pass over the mapping: groups of 512 base
// pages are collapsed into freshly allocated 2 MB blocks, paying one
// software migration per page moved. maxCollapses bounds the work per
// pass (0 = unlimited). Returns the number of collapses performed.
//
// Base pages are kept at the tail of Blocks (in allocation order) with
// larger blocks, new huge ones included, ahead of them, so a pass reads
// no block record once the mapping is partitioned.
func (k *Kernel) Promote(m *Mapping, maxCollapses int) int {
	if !m.tailSmall {
		k.partitionSmall(m)
	}
	rest := len(m.Blocks) - m.small
	collapses, next := 0, rest
	for len(m.Blocks)-next >= mem.PageblockPages {
		if maxCollapses > 0 && collapses >= maxCollapses {
			break
		}
		huge, err := k.Alloc(mem.Order2M, mem.MigrateMovable, mem.SrcUser)
		if err != nil {
			break
		}
		for _, p := range m.Blocks[next : next+mem.PageblockPages] {
			// Collapse: copy the base page into the huge block.
			k.SWMigrations++
			cycles := k.migCost.UnavailableCycles(k.cfg.Victims)
			k.SWMigrationCycles += cycles
			if k.histSW != nil {
				k.histSW.Observe(cycles)
			}
			k.Free(p)
		}
		next += mem.PageblockPages
		// Collapsed groups lie behind this position, so it is free.
		m.Blocks[rest+collapses] = huge
		collapses++
	}
	if collapses > 0 {
		m.small = copy(m.Blocks[rest+collapses:], m.Blocks[next:])
		m.Blocks = m.Blocks[:rest+collapses+m.small]
	}
	return collapses
}

// partitionSmall stably moves m's base pages behind its larger blocks,
// the layout Promote works on.
func (k *Kernel) partitionSmall(m *Mapping) {
	small := k.promoteSmall[:0]
	w := 0
	for _, b := range m.Blocks {
		if k.live.lookup(b).Order == mem.Order4K {
			small = append(small, b)
		} else {
			m.Blocks[w] = b
			w++
		}
	}
	m.Blocks = append(m.Blocks[:w], small...)
	m.small, m.tailSmall = len(small), true
	k.promoteSmall = small[:0]
}

// HugeTLBResult reports a dynamic HugeTLB reservation attempt.
type HugeTLBResult struct {
	Requested int
	Allocated int
	Pages     []Handle
}

// AllocHugeTLB dynamically reserves count huge pages of the given order
// (2 MB or 1 GB), the way a service pre-faults its HugeTLB pool at
// startup. Each page goes through the full slow path (reclaim +
// compaction); under fragmentation with scattered unmovable pages, 1 GB
// requests fail on Linux and succeed under Contiguitas (§5.1).
func (k *Kernel) AllocHugeTLB(order, count int) HugeTLBResult {
	// Explicit reservations run direct compaction, unconstrained by the
	// background budget.
	k.directCompact = true
	defer func() { k.directCompact = false }()
	res := HugeTLBResult{Requested: count}
	for i := 0; i < count; i++ {
		p, err := k.Alloc(order, mem.MigrateMovable, mem.SrcUser)
		if err != nil {
			break
		}
		res.Pages = append(res.Pages, p)
		res.Allocated++
	}
	return res
}

// FreeHugeTLB releases a reservation.
func (k *Kernel) FreeHugeTLB(r *HugeTLBResult) {
	for _, p := range r.Pages {
		if k.Live(p) {
			k.Free(p)
		}
	}
	r.Pages = nil
	r.Allocated = 0
}

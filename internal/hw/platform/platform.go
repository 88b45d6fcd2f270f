// Package platform assembles the full simulated machine of Table 1 —
// out-of-order-class cores with private TLBs and caches, the sliced LLC
// with Contiguitas-HW, DRAM, and the IOMMU/NIC — and implements the OS
// flows the paper evaluates against it: software page migration with
// IPI-based TLB shootdowns (Figure 1), and Contiguitas-HW migration with
// lazy local invalidations (§3.3). The Figure 13 microbenchmark and the
// §5.3 request-serving experiments run on top of this package.
package platform

import (
	"fmt"

	"contiguitas/internal/hw"
	"contiguitas/internal/hw/cache"
	"contiguitas/internal/hw/contighw"
	"contiguitas/internal/hw/dram"
	"contiguitas/internal/hw/engine"
	"contiguitas/internal/hw/iommu"
	"contiguitas/internal/hw/tlb"
	"contiguitas/internal/telemetry"
)

// Machine is one simulated server.
type Machine struct {
	P      hw.Params
	Eng    *engine.Engine
	DRAM   *dram.DRAM
	H      *cache.Hierarchy
	TLBs   []*tlb.PerCore
	Contig *contighw.Engine // nil on the baseline machine
	IOMMU  *iommu.IOMMU
	NIC    *iommu.Device

	pageTable map[uint64]uint64 // VPN -> PPN (4 KB mappings)
	hugeTable map[uint64]uint64 // VPN>>9 -> PPN>>9 (2 MB mappings)
	mode      contighw.Mode     // valid when Contig != nil

	// Invlpgs counts local TLB invalidations performed.
	Invlpgs uint64

	// TP, when attached, receives cycle-stamped migration tracepoints
	// (EvMigrateStart/EvTLBShootdown/EvMoverBegin/EvMoverEnd/
	// EvShootdownFree) timestamped with the engine clock. Set its Unit
	// to "cycle" (AttachTracer does) so exporters convert correctly.
	TP *telemetry.Ring
}

// AttachTracer creates a cycle-unit tracepoint ring of the given
// capacity and attaches it to the machine.
func (m *Machine) AttachTracer(capacity int) *telemetry.Ring {
	m.TP = telemetry.NewRing(capacity)
	m.TP.Unit = "cycle"
	return m.TP
}

// NewMachine builds a machine; contigMode nil gives the Linux baseline
// (no Contiguitas-HW attached).
func NewMachine(p hw.Params, contigMode *contighw.Mode) *Machine {
	eng := engine.New()
	d := dram.New(dram.DefaultConfig())
	h := cache.New(p, d)
	m := &Machine{
		P:         p,
		Eng:       eng,
		DRAM:      d,
		H:         h,
		IOMMU:     iommu.New(p),
		pageTable: make(map[uint64]uint64),
		hugeTable: make(map[uint64]uint64),
	}
	m.NIC = iommu.NewDevice(m.IOMMU)
	for i := 0; i < p.Cores; i++ {
		m.TLBs = append(m.TLBs, tlb.NewPerCore(p))
	}
	if contigMode != nil {
		m.mode = *contigMode
		m.Contig = contighw.New(contighw.DefaultConfig(*contigMode), h, eng)
	}
	return m
}

// MapPage installs a 4 KB VPN→PPN translation.
func (m *Machine) MapPage(vpn, ppn uint64) { m.pageTable[vpn] = ppn }

// MapHugePage installs a 2 MB translation: the 512-page virtual region
// starting at vpn2m<<9 maps to the physical region at ppn2m<<9. TLBs
// cache it as a single entry — the huge-page reach advantage.
func (m *Machine) MapHugePage(vpn2m, ppn2m uint64) { m.hugeTable[vpn2m] = ppn2m }

// PageTableLookup resolves a VPN to a base-page PPN; unmapped VPNs
// identity-map, which keeps microbenchmarks terse.
func (m *Machine) PageTableLookup(vpn uint64) uint64 {
	ppn, _ := m.Resolve(vpn)
	return ppn
}

// Resolve is the page-table walk: huge mappings take priority (a real
// page table has one entry or the other at the PMD level).
func (m *Machine) Resolve(vpn uint64) (uint64, bool) {
	if hppn, ok := m.hugeTable[vpn>>9]; ok {
		return hppn<<9 | vpn&0x1ff, true
	}
	if ppn, ok := m.pageTable[vpn]; ok {
		return ppn, false
	}
	return vpn, false
}

// Access performs one memory access by a core at virtual address va,
// starting at cycle now: TLB translation (with page walk on miss), then
// the cache hierarchy. Returns the value observed and completion cycle.
func (m *Machine) Access(core int, va uint64, isWrite bool, val uint64, now uint64) (uint64, uint64) {
	vpn := va >> hw.PageShift
	ppn, tlat := m.TLBs[core].Translate(vpn, m.Resolve)
	pa := ppn<<hw.PageShift | va&(hw.PageBytes-1)
	v, done := m.H.Access(core, pa, isWrite, val, now+tlat)
	return v, done
}

// DeviceAccess performs one NIC DMA access (cache-coherent, served at
// the LLC level like real DDIO traffic).
func (m *Machine) DeviceAccess(va uint64, isWrite bool, val uint64, now uint64) (uint64, uint64) {
	vpn := va >> hw.PageShift
	ppn, tlat := m.NIC.Translate(vpn, m.PageTableLookup)
	pa := ppn<<hw.PageShift | va&(hw.PageBytes-1)
	// Device traffic bypasses core private caches; reuse core 0's port
	// for slice routing purposes via the noncacheable-style LLC path.
	line := hw.LineAddr(pa)
	v, done := m.llcDirect(line, isWrite, val, now+tlat)
	return v, done
}

// llcDirect is the device's LLC-coherent access: collect private copies
// (DDIO-style snoop), then read or write the LLC.
func (m *Machine) llcDirect(line uint64, isWrite bool, val uint64, now uint64) (uint64, uint64) {
	canonical := line
	var extra uint64
	if m.Contig != nil {
		canonical, extra = m.Contig.Translate(line)
	}
	v, wasM, c := m.H.CollectAndInvalidate(canonical)
	cycles := extra + c
	if isWrite {
		cycles += m.H.WriteLLC(canonical, val)
		v = val
	} else if wasM {
		cycles += m.H.WriteLLC(canonical, v)
	}
	return v, now + cycles
}

// MigrationReport describes one measured page migration.
type MigrationReport struct {
	UnavailableCycles uint64 // window during which the page is blocked
	TotalCycles       uint64 // end-to-end completion
}

// SoftwareMigrate runs the Figure 1 procedure: clear PTE, invalidate the
// initiator's TLB, IPI every victim, wait for acknowledgements, copy the
// page, update the PTE. The page is unavailable for the whole sequence.
// IPI delivery and acknowledgement handling serialise on the interrupt
// fabric — the poor scaling the paper measures.
func (m *Machine) SoftwareMigrate(initiator int, vpn, srcPPN, dstPPN uint64, victims []int) MigrationReport {
	p := m.P
	now := m.Eng.Now()
	t := now
	if m.TP.Enabled() {
		m.TP.Emit(now, telemetry.EvMigrateStart, srcPPN, 0, 0)
	}

	// Step 1: clear PTE. The page becomes unavailable here.
	t += 150
	delete(m.pageTable, vpn)

	// Step 2: initiator's local invalidation.
	t += m.TLBs[initiator].Invlpg(vpn)
	m.Invlpgs++

	// Step 3-5: serialized IPI rounds. The interrupt fabric delivers
	// and collects acknowledgements one victim at a time.
	for _, v := range victims {
		t += p.IPISendCycles
		t += p.IPIDeliveryCycles
		t += m.TLBs[v].Invlpg(vpn) // Step 4 on the victim
		m.Invlpgs++
		t += p.AckCycles // Step 5
	}

	// Device TLBs go through the IOMMU invalidation queue.
	m.IOMMU.QueueInvalidation(vpn)
	t += m.IOMMU.ProcessQueue([]*iommu.Device{m.NIC})

	// Step 6: copy the page through the memory system.
	t += m.copyPage(srcPPN, dstPPN, t)

	// Step 7: update the PTE; the page becomes available again.
	t += 150
	m.MapPage(vpn, dstPPN)

	m.Eng.At(t, func() {})
	m.Eng.Run()
	if m.TP.Enabled() {
		m.TP.Emit(now, telemetry.EvTLBShootdown, srcPPN, uint64(len(victims)), t-now)
		m.TP.Emit(now, telemetry.EvMigrateComplete, srcPPN, dstPPN, t-now)
	}
	return MigrationReport{UnavailableCycles: t - now, TotalCycles: t - now}
}

// copyPage models the kernel's 4 KB copy: line reads and writes that
// mostly hit the LLC/DRAM pipeline; ~1300 cycles as measured (§5.3).
func (m *Machine) copyPage(srcPPN, dstPPN uint64, start uint64) uint64 {
	var lat uint64 = 100 // warmup / setup
	for i := 0; i < hw.LinesPerPage; i++ {
		// Pipelined line copies: issue every ~18 cycles.
		lat += 18
	}
	_ = srcPPN
	_ = dstPPN
	return lat + 50
}

// HWMigrateOptions controls a Contiguitas-HW migration run.
type HWMigrateOptions struct {
	// KernelEntryInterval is the per-core gap between natural kernel
	// entries (context switches / syscalls) at which lazy local
	// invalidations happen; §5.3 observes 40K-100K per second, i.e.
	// one every ~25 µs (50K cycles at 2 GHz).
	KernelEntryInterval uint64
}

// StartHWMigration schedules the §3.3 flow on a machine with
// Contiguitas-HW attached and returns immediately; onCleared fires when
// the metadata entry has been cleared. The page remains available for
// the whole duration, so migrations overlap freely with application
// traffic (the §5.3 experiments rely on this).
func (m *Machine) StartHWMigration(vpn, srcPPN, dstPPN uint64, opts HWMigrateOptions, onCleared func()) error {
	if m.Contig == nil {
		return fmt.Errorf("platform: no Contiguitas-HW attached")
	}
	if opts.KernelEntryInterval == 0 {
		opts.KernelEntryInterval = 50000
	}
	noncacheable := m.mode == contighw.Noncacheable

	finish := func() {
		// OS observed the completion flag: update the PTE, then each
		// core performs a local invalidation at its next natural
		// kernel entry — no IPIs, no synchronous acknowledgements.
		m.MapPage(vpn, dstPPN)
		last := uint64(0)
		for c := 0; c < m.P.Cores; c++ {
			core := c
			delay := (opts.KernelEntryInterval / uint64(m.P.Cores)) * uint64(core+1)
			if delay > last {
				last = delay
			}
			m.Eng.After(delay, func() {
				m.TLBs[core].Invlpg(vpn)
				m.Invlpgs++
			})
		}
		m.IOMMU.QueueInvalidation(vpn)
		m.IOMMU.ProcessQueue([]*iommu.Device{m.NIC})
		m.Eng.After(last+10, func() {
			if _, err := m.Contig.Submit(contighw.Descriptor{Op: contighw.OpClear, Src: srcPPN}); err != nil {
				panic(err)
			}
			if onCleared != nil {
				onCleared()
			}
		})
	}

	if noncacheable {
		// Migration mapping installed and copy started at once; the OS
		// learns of completion via the work descriptor's completion
		// address.
		_, err := m.Contig.Submit(contighw.Descriptor{
			Op: contighw.OpMigrate, Src: srcPPN, Dst: dstPPN,
			StartCopy: true, OnComplete: finish,
		})
		if err != nil {
			return err
		}
	} else {
		// Cacheable flow: install redirection only, flip the PTE and
		// invalidate TLBs lazily, then start the copy.
		_, err := m.Contig.Submit(contighw.Descriptor{
			Op: contighw.OpMigrate, Src: srcPPN, Dst: dstPPN,
		})
		if err != nil {
			return err
		}
		m.MapPage(vpn, dstPPN)
		last := uint64(0)
		for c := 0; c < m.P.Cores; c++ {
			core := c
			delay := (opts.KernelEntryInterval / uint64(m.P.Cores)) * uint64(core+1)
			if delay > last {
				last = delay
			}
			m.Eng.After(delay, func() {
				m.TLBs[core].Invlpg(vpn)
				m.Invlpgs++
			})
		}
		m.Eng.After(last+10, func() {
			_, err := m.Contig.Submit(contighw.Descriptor{
				Op: contighw.OpStartCopy, Src: srcPPN,
			})
			if err != nil {
				panic(err)
			}
			// Poll for completion at kernel entries.
			var poll func()
			poll = func() {
				if ent := m.Contig.Lookup(srcPPN); ent != nil && ent.Completion {
					if _, err := m.Contig.Submit(contighw.Descriptor{Op: contighw.OpClear, Src: srcPPN}); err != nil {
						panic(err)
					}
					if onCleared != nil {
						onCleared()
					}
					return
				}
				m.Eng.After(2000, poll)
			}
			m.Eng.After(2000, poll)
		})
	}
	return nil
}

// HWMigrate runs StartHWMigration to completion and reports: the
// unavailable window is the cost of one local invalidation (what
// Figure 13 plots for Contiguitas), the total is end-to-end time until
// the metadata entry was cleared.
func (m *Machine) HWMigrate(vpn, srcPPN, dstPPN uint64, opts HWMigrateOptions) (MigrationReport, error) {
	return m.HWMigrateObserved(vpn, srcPPN, dstPPN, opts, nil)
}

// HWMigrateObserved is HWMigrate with an extra hook: onCopyDone fires
// when the copy engine has processed every line (the metadata entry's
// completion flag), before the lazy invalidation window and Clear.
func (m *Machine) HWMigrateObserved(vpn, srcPPN, dstPPN uint64, opts HWMigrateOptions, onCopyDone func()) (MigrationReport, error) {
	start := m.Eng.Now()
	if m.TP.Enabled() {
		m.TP.Emit(start, telemetry.EvMigrateStart, srcPPN, 0, 1)
		m.TP.Emit(start, telemetry.EvMoverBegin, srcPPN, dstPPN, 0)
	}
	var clearAt uint64
	complete := false
	err := m.StartHWMigration(vpn, srcPPN, dstPPN, opts, func() {
		clearAt = m.Eng.Now()
		complete = true
	})
	if err != nil {
		return MigrationReport{}, err
	}
	if onCopyDone != nil {
		var poll func()
		poll = func() {
			if ent := m.Contig.Lookup(srcPPN); ent != nil && ent.Completion {
				onCopyDone()
				return
			}
			if m.Contig.Lookup(srcPPN) == nil { // already cleared
				onCopyDone()
				return
			}
			m.Eng.After(50, poll)
		}
		m.Eng.After(50, poll)
	}
	m.Eng.Run()
	if !complete {
		if m.TP.Enabled() {
			m.TP.Emit(m.Eng.Now(), telemetry.EvMoverEnd, srcPPN, m.Eng.Now()-start, 0)
		}
		return MigrationReport{}, fmt.Errorf("platform: migration did not complete")
	}
	if m.TP.Enabled() {
		m.TP.Emit(start, telemetry.EvMoverEnd, srcPPN, clearAt-start, 1)
		m.TP.Emit(start, telemetry.EvShootdownFree, srcPPN, uint64(m.P.Cores-1), clearAt-start)
	}
	return MigrationReport{
		UnavailableCycles: m.P.INVLPGCycles, // one local invalidation
		TotalCycles:       clearAt - start,
	}, nil
}

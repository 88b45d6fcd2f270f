// Package iommu models the I/O side of the platform (§3.3 Platform
// Overview): an IOMMU with its own IOTLB performing page walks for
// devices, a cache-coherent NIC with a private device TLB that caches
// translations from the IOMMU, and the memory-based invalidation queue
// through which cores synchronise device TLBs.
package iommu

import (
	"contiguitas/internal/hw"
	"contiguitas/internal/hw/tlb"
)

// IOMMU performs translations for devices.
type IOMMU struct {
	p     hw.Params
	iotlb *tlb.TLB

	// invQueue is the in-memory invalidation queue cores submit to.
	invQueue []uint64

	Walks         uint64
	Invalidations uint64
}

// New builds an IOMMU with a 64-entry IOTLB.
func New(p hw.Params) *IOMMU {
	return &IOMMU{p: p, iotlb: tlb.NewTLB(64, 4)}
}

// Translate resolves a device virtual page through the IOTLB, walking
// the page table on a miss. Returns the PPN and latency.
func (u *IOMMU) Translate(vpn uint64, pageTable func(uint64) uint64) (uint64, uint64) {
	if ppn, ok := u.iotlb.Lookup(vpn); ok {
		return ppn, 4
	}
	u.Walks++
	ppn := pageTable(vpn)
	u.iotlb.Insert(vpn, ppn)
	return ppn, 4 + 64
}

// QueueInvalidation submits an invalidation request to the queue (any
// core may do this; no IPIs are involved — §3.3).
func (u *IOMMU) QueueInvalidation(vpn uint64) {
	u.invQueue = append(u.invQueue, vpn)
}

// Device is a cache-coherent device (the NIC) with a private TLB that
// caches translations from the IOMMU.
type Device struct {
	u    *IOMMU
	dtlb *tlb.TLB

	Accesses uint64
}

// NewDevice attaches a device to the IOMMU with a 32-entry device TLB.
func NewDevice(u *IOMMU) *Device {
	return &Device{u: u, dtlb: tlb.NewTLB(32, 4)}
}

// Translate resolves through the device TLB, falling back to the IOMMU.
func (d *Device) Translate(vpn uint64, pageTable func(uint64) uint64) (uint64, uint64) {
	d.Accesses++
	if ppn, ok := d.dtlb.Lookup(vpn); ok {
		return ppn, 2
	}
	ppn, lat := d.u.Translate(vpn, pageTable)
	d.dtlb.Insert(vpn, ppn)
	return ppn, 2 + lat
}

// ProcessQueue drains the invalidation queue against the IOTLB and the
// given devices, returning the cycles consumed. Each entry invalidates
// both the IOTLB and every device TLB.
func (u *IOMMU) ProcessQueue(devices []*Device) uint64 {
	var cycles uint64
	for _, vpn := range u.invQueue {
		u.iotlb.Invalidate(vpn)
		cycles += 8
		for _, d := range devices {
			d.dtlb.Invalidate(vpn)
			cycles += 4
		}
		u.Invalidations++
	}
	u.invQueue = u.invQueue[:0]
	return cycles
}

// Package contiguitas is a reproduction, in pure Go, of "Contiguitas:
// The Pursuit of Physical Memory Contiguity in Datacenters" (Zhao et
// al., ISCA 2023).
//
// Contiguitas attacks memory fragmentation caused by unmovable kernel
// allocations with two coordinated mechanisms:
//
//   - an operating-system redesign that confines unmovable allocations
//     into a dedicated, continuous region of physical memory whose
//     boundary is resized dynamically from per-region memory pressure
//     (Algorithm 1 of the paper), and
//   - hardware extensions in the last-level cache (Contiguitas-HW) that
//     migrate "unmovable" pages transparently while they remain in use —
//     no blocked accesses, no IPI-based TLB shootdowns.
//
// This package is the public face of the repository: it re-exports the
// simulated machine (kernel memory manager with buddy allocator,
// migratetypes, THP/HugeTLB, reclaim, and compaction), the production
// workload profiles, the fleet study, the cycle-approximate hardware
// platform, and the experiment drivers that regenerate every figure and
// table of the paper's evaluation. See DESIGN.md for the system
// inventory and EXPERIMENTS.md for paper-versus-measured results.
//
// # Quick start
//
//	m := contiguitas.NewMachine(contiguitas.DefaultMachineConfig(contiguitas.DesignContiguitas))
//	r := m.Attach(contiguitas.Web(), 1)
//	r.Run(500)
//	st := m.Scan()
//	fmt.Printf("unmovable 2MB blocks: %.1f%%\n", 100*st.UnmovableBlockFraction(contiguitas.Order2M))
//
// The four executables (cmd/contigsim, cmd/fleetscan, cmd/migbench,
// cmd/contigtrace) and the examples directory show the API on the
// paper's scenarios.
package contiguitas

import (
	"contiguitas/internal/core"
	"contiguitas/internal/fleet"
	"contiguitas/internal/hw/platform"
	"contiguitas/internal/kernel"
	"contiguitas/internal/mem"
	"contiguitas/internal/slab"
	"contiguitas/internal/trans"
	"contiguitas/internal/workload"
)

// Design selects the memory-management system under test.
type Design = core.Design

// The three designs the paper compares.
const (
	DesignLinux         = core.DesignLinux
	DesignContiguitas   = core.DesignContiguitas
	DesignContiguitasHW = core.DesignContiguitasHW
)

// Machine is one simulated server.
type Machine = core.Machine

// MachineConfig sizes a simulated server.
type MachineConfig = core.MachineConfig

// NewMachine boots a simulated server.
func NewMachine(mc MachineConfig) *Machine { return core.NewMachine(mc) }

// DefaultMachineConfig returns the simulation-scale defaults.
func DefaultMachineConfig(d Design) MachineConfig { return core.DefaultMachineConfig(d) }

// SteadyState is a machine's scanned state after workload warmup.
type SteadyState = core.SteadyState

// Profile describes a service's memory behaviour.
type Profile = workload.Profile

// Runner drives a kernel with a profile.
type Runner = workload.Runner

// Fragmenter reproduces the paper's Full-Fragmentation setup.
type Fragmenter = workload.Fragmenter

// The paper's production services plus the Figure 3 extra.
func Web() Profile    { return workload.Web() }
func CacheA() Profile { return workload.CacheA() }
func CacheB() Profile { return workload.CacheB() }
func CI() Profile     { return workload.CI() }
func Ads() Profile    { return workload.Ads() }

// Profiles returns the Figure 11/12 service set.
func Profiles() []Profile { return workload.Profiles() }

// DefaultFragmenter fully fragments a machine before deployment.
func DefaultFragmenter(seed uint64) Fragmenter { return workload.DefaultFragmenter(seed) }

// Kernel is the simulated memory manager (advanced use).
type Kernel = kernel.Kernel

// Handle names one relocatable allocation; Kernel.Page reads its
// current record.
type Handle = kernel.Handle

// Page is the record of one allocation: current PFN, order, class,
// source and pin state.
type Page = kernel.Page

// Block orders of interest, re-exported from the physical memory model.
const (
	Order4K  = mem.Order4K
	Order2M  = mem.Order2M
	Order4M  = mem.Order4M
	Order32M = mem.Order32M
	Order1G  = mem.Order1G
)

// MigrateType classifies allocations; Source attributes them.
type (
	MigrateType = mem.MigrateType
	Source      = mem.Source
)

// Allocation classes and sources (Figure 6 vocabulary).
const (
	MigrateUnmovable   = mem.MigrateUnmovable
	MigrateReclaimable = mem.MigrateReclaimable
	MigrateMovable     = mem.MigrateMovable

	SrcUser       = mem.SrcUser
	SrcNetworking = mem.SrcNetworking
	SrcSlab       = mem.SrcSlab
	SrcFilesystem = mem.SrcFilesystem
	SrcPageTable  = mem.SrcPageTable
	SrcKernelCode = mem.SrcKernelCode
	SrcOther      = mem.SrcOther
)

// FleetConfig parameterises the §2 fleet study.
type FleetConfig = fleet.Config

// FleetStudy is the aggregated fleet scan.
type FleetStudy = fleet.Study

// RunFleet executes the fleet study (Figures 4, 5, 6 and the uptime
// correlation analysis).
func RunFleet(cfg FleetConfig) *FleetStudy { return fleet.Run(cfg) }

// DefaultFleetConfig returns an interactive-scale study.
func DefaultFleetConfig() FleetConfig { return fleet.DefaultConfig() }

// FleetTimePoint is one instant of a young server's fragmentation
// history (§2.4).
type FleetTimePoint = fleet.TimePoint

// YoungServerSeries scans a freshly booted server at fixed intervals,
// reproducing the paper's fragmentation-within-the-first-hour finding.
func YoungServerSeries(cfg FleetConfig, p Profile, points int, interval uint64) []FleetTimePoint {
	return fleet.YoungServerSeries(cfg, p, points, interval)
}

// TLBConfig and Workload drive the analytic translation model.
type (
	TLBConfig     = trans.TLBConfig
	TransWorkload = trans.Workload
	Coverage      = trans.Coverage
)

// DefaultTLB matches the paper's simulated platform (Table 1).
func DefaultTLB() TLBConfig { return trans.DefaultTLB() }

// HWMachine is the cycle-approximate hardware platform with optional
// Contiguitas-HW attached (Figure 13 and §5.3 run on it).
type HWMachine = platform.Machine

// ExpConfig scales the experiment drivers.
type ExpConfig = core.ExpConfig

// DefaultExpConfig is the simulation scale used by cmd/contigsim.
func DefaultExpConfig() ExpConfig { return core.DefaultExpConfig() }

// Experiment drivers: one per figure/table of the paper's evaluation.
// Row types are re-exported below.
func Fig2() []Fig2Row                        { return core.Fig2() }
func Fig3() []Fig3Row                        { return core.Fig3() }
func Fig10(cfg ExpConfig) []Fig10Row         { return core.Fig10(cfg) }
func Fig11(cfg ExpConfig) []Fig11Row         { return core.Fig11(cfg) }
func Fig12(cfg ExpConfig) []Fig12Row         { return core.Fig12(cfg) }
func Fig13() []Fig13Point                    { return core.Fig13() }
func Sec53(durationCycles uint64) []Sec53Row { return core.Sec53(durationCycles) }

// Result row types of the experiment drivers.
type (
	Fig2Row    = core.Fig2Row
	Fig3Row    = core.Fig3Row
	Fig10Row   = core.Fig10Row
	Fig11Row   = core.Fig11Row
	Fig12Row   = core.Fig12Row
	Fig13Point = platform.Fig13Point
	Sec53Row   = core.Sec53Row
)

// SlabCache is a SLUB-style size-class cache; SlabManager bundles the
// standard kernel object classes. Slab is the paper's second-largest
// unmovable source: one live object pins a whole backing page.
type (
	SlabCache   = slab.Cache
	SlabManager = slab.Manager
	SlabObj     = slab.Obj
)

// NewSlabCache builds one size class over a kernel's page allocator.
func NewSlabCache(name string, objSize int, k *Kernel) (*SlabCache, error) {
	return slab.NewCache(name, objSize, k)
}

// NewSlabManager builds the standard kernel object caches.
func NewSlabManager(k *Kernel) *SlabManager { return slab.NewManager(k) }

// MemcachedHugePageGain reproduces the §5.3 memcached +7% claim.
func MemcachedHugePageGain() float64 { return core.MemcachedHugePageGain() }

// Sizing reproduces the §5.3 metadata-table sizing analysis.
func Sizing() core.SizingReport { return core.Sizing() }

// Package core ties the pieces of Contiguitas together into the system
// the paper describes: a simulated machine whose kernel confines
// unmovable allocations into a dynamically resized region (§3.2),
// optionally assisted by Contiguitas-HW for pages software cannot move
// (§3.3), together with the baseline Linux layout it is compared
// against, workload attachment, and the measurement helpers behind the
// paper's evaluation (§5).
package core

import (
	"fmt"

	"contiguitas/internal/kernel"
	"contiguitas/internal/mem"
	"contiguitas/internal/trans"
	"contiguitas/internal/workload"
)

// Design selects the memory-management system under test.
type Design uint8

const (
	// DesignLinux is the baseline: one zone, fallback stealing.
	DesignLinux Design = iota
	// DesignContiguitas confines unmovable allocations (OS only).
	DesignContiguitas
	// DesignContiguitasHW adds the hardware extensions, enabling
	// migration of unmovable pages (region defragmentation and
	// unconditional shrinking).
	DesignContiguitasHW
)

// String names the design.
func (d Design) String() string {
	switch d {
	case DesignLinux:
		return "Linux"
	case DesignContiguitas:
		return "Contiguitas"
	case DesignContiguitasHW:
		return "Contiguitas-HW"
	}
	return fmt.Sprintf("design(%d)", uint8(d))
}

// MachineConfig sizes a simulated server.
type MachineConfig struct {
	Design   Design
	MemBytes uint64
	// UnmovableInit/Min/Max size the unmovable region; zero values pick
	// the paper's proportions (1/16 initial on the simulated scale,
	// 4 GB on 64 GB in production).
	UnmovableInit uint64
	UnmovableMin  uint64
	UnmovableMax  uint64
	Seed          uint64
}

// DefaultMachineConfig returns an 8 GB simulation-scale server (the
// paper's 64 GB parameters scale down proportionally; experiments
// document the scale in EXPERIMENTS.md).
func DefaultMachineConfig(d Design) MachineConfig {
	const gb = 1 << 30
	return MachineConfig{
		Design:   d,
		MemBytes: 8 * gb,
		Seed:     1,
	}
}

// Machine is one simulated server under a given design.
type Machine struct {
	Design Design
	K      *kernel.Kernel
}

// KernelConfig is the kernel configuration NewMachine boots with,
// exposed so checkpoint restore can rebuild a machine with the
// identical fingerprint (mode, memory size, region bounds, seed).
func (mc MachineConfig) KernelConfig() kernel.Config {
	mode := kernel.ModeLinux
	if mc.Design != DesignLinux {
		mode = kernel.ModeContiguitas
	}
	cfg := kernel.DefaultConfig(mode)
	cfg.MemBytes = mc.MemBytes
	cfg.Seed = mc.Seed

	init := mc.UnmovableInit
	if init == 0 {
		init = mc.MemBytes / 16
	}
	minB := mc.UnmovableMin
	if minB == 0 {
		minB = mc.MemBytes / 64
	}
	maxB := mc.UnmovableMax
	if maxB == 0 {
		maxB = mc.MemBytes / 2
	}
	cfg.InitialUnmovableBytes = init
	cfg.MinUnmovableBytes = minB
	cfg.MaxUnmovableBytes = maxB
	cfg.MaxResizeStepBytes = mc.MemBytes / 32

	if mc.Design == DesignContiguitasHW {
		cfg.HWMover = kernel.NewAnalyticMover()
	}
	return cfg
}

// NewMachine boots a server.
func NewMachine(mc MachineConfig) *Machine {
	return &Machine{Design: mc.Design, K: kernel.New(mc.KernelConfig())}
}

// Attach runs a workload profile on the machine.
func (m *Machine) Attach(p workload.Profile, seed uint64) *workload.Runner {
	return workload.NewRunner(m.K, p, seed)
}

// Scan performs the paper's full physical-memory scan.
func (m *Machine) Scan() *mem.ContiguityStats {
	return m.K.PM().Scan(mem.ScanOrders)
}

// SteadyState describes a machine after a workload warmup — the inputs
// to Figures 11 and 12 and the end-to-end model of Figure 10.
type SteadyState struct {
	Design  Design
	Profile string

	UnmovableBlockFrac map[int]float64 // per scan order
	PotentialFrac      map[int]float64
	FreeContigFrac     map[int]float64
	UnmovableFrameFrac float64

	THPCoverage float64
	Huge1GPages int

	InternalFragFree float64 // §5.2: free fraction inside unmovable 2MB blocks
}

// RunToSteadyState warms the machine with the profile and scans it.
// try1G additionally attempts a dynamic 1 GB HugeTLB allocation of up to
// max1G pages (the Web experiment).
func (m *Machine) RunToSteadyState(p workload.Profile, ticks uint64, seed uint64, max1G int) (*SteadyState, *workload.Runner) {
	r := m.Attach(p, seed)
	r.Run(ticks)

	st := m.Scan()
	ss := &SteadyState{
		Design:             m.Design,
		Profile:            p.Name,
		UnmovableBlockFrac: map[int]float64{},
		PotentialFrac:      map[int]float64{},
		FreeContigFrac:     map[int]float64{},
		UnmovableFrameFrac: st.UnmovableFrameFraction(),
		THPCoverage:        r.THPCoverage(),
	}
	for _, o := range mem.ScanOrders {
		ss.UnmovableBlockFrac[o] = st.UnmovableBlockFraction(o)
		ss.PotentialFrac[o] = st.PotentialFraction(o)
		ss.FreeContigFrac[o] = st.FreeContigFraction(o)
	}
	if m.K.Mode() == kernel.ModeContiguitas {
		fs := m.K.PM().InternalFragmentation(0, m.K.Boundary())
		ss.InternalFragFree = fs.MeanFreeInside
	}
	if max1G > 0 {
		res := m.K.AllocHugeTLB(mem.Order1G, max1G)
		ss.Huge1GPages = res.Allocated
	}
	return ss, r
}

// EndToEnd evaluates the Figure 10 performance model for a steady
// state: the achieved huge-page coverage feeds the translation model.
func (ss *SteadyState) EndToEnd(tlb trans.TLBConfig, w trans.Workload, userBytes uint64) (walkPct float64, cov trans.Coverage) {
	cov = trans.Coverage{Frac2M: ss.THPCoverage}
	if ss.Huge1GPages > 0 && userBytes > 0 {
		f1g := float64(uint64(ss.Huge1GPages)<<30) / float64(userBytes)
		if f1g > 1 {
			f1g = 1
		}
		cov.Frac1G = f1g
		cov.Frac2M *= 1 - f1g
	}
	d, i := tlb.WalkPct(w, cov)
	return d + i, cov
}

package kernel

import (
	"fmt"

	"contiguitas/internal/mem"
	"contiguitas/internal/pressure"
	"contiguitas/internal/psi"
	"contiguitas/internal/resize"
	"contiguitas/internal/telemetry"
)

// This file is the mechanism half of the exhaustion-survival subsystem;
// the policies (rung ordering, throttle pricing, hysteresis, badness)
// live in internal/pressure. Enabled by Config.Pressure, it extends the
// allocation slow path with a Linux-style ladder:
//
//	fast → direct reclaim → compaction           (the pre-existing path)
//	     → throttle: cycle-priced stalls + reclaim retries
//	     → emergency region resize (shrink unmovable for movable
//	       requests, expand for unmovable ones)
//	     → OOM kill (badness-scored victim, skipped for page cache)
//
// and an admission gate that sheds new allocations outright while a
// short-half-life PSI tracker sits above the shed threshold.

// OOMVictim is a killable memory consumer. Workload pools register as
// victims; a kill must synchronously free the pool's pages back to the
// kernel (via Free/FreeMapping — never via Alloc, so kills cannot
// re-enter the ladder) and return how many frames it released. Victim
// selection is deterministic: highest badness wins, ties go to the
// earliest registration.
type OOMVictim interface {
	// OOMName identifies the victim in kill records and error strings.
	OOMName() string
	// OOMPages returns the frames currently held (0 = nothing to kill).
	OOMPages() uint64
	// OOMScoreAdj biases badness like oom_score_adj, in thousandths of
	// total memory (negative protects, positive sacrifices).
	OOMScoreAdj() int64
	// OOMKill frees the pool and returns the frames released.
	OOMKill(tick uint64) uint64
}

// RegisterOOMVictim adds a kill candidate. Registration order is the
// deterministic tie-break, so owners must register in a fixed order
// (the workload runner registers its pools at construction). Victims
// are not serialized: restore paths re-register through the same
// constructors.
func (k *Kernel) RegisterOOMVictim(v OOMVictim) {
	k.victims = append(k.victims, v)
}

// PressureConfig returns the normalized ladder config (nil = disabled).
func (k *Kernel) PressureConfig() *pressure.Config { return k.pcfg }

// Escalation returns a copy of the run's ladder-escalation profile.
func (k *Kernel) Escalation() pressure.Escalation { return k.esc }

// OOMHistory returns a copy of the kill log, oldest first.
func (k *Kernel) OOMHistory() []pressure.Kill {
	return append([]pressure.Kill(nil), k.oomHistory...)
}

// oomHistoryCap bounds the kill log; a misbehaving workload killing
// every tick must not grow the snapshot without bound.
const oomHistoryCap = 256

// shedAllocation reports whether the admission gate refuses this
// request. Only movable-class requests shed: unmovable (kernel)
// allocations are the GFP_ATOMIC analog, and explicit HugeTLB
// reservations (directCompact) carry the caller's intent to pay for
// compaction, so both bypass the gate.
func (k *Kernel) shedAllocation(mt mem.MigrateType) bool {
	return k.pcfg != nil && mt == mem.MigrateMovable && !k.directCompact &&
		k.gate.Shedding()
}

// errAllocShed memoizes the fail-fast admission refusal.
func (k *Kernel) errAllocShed() error {
	if k.shedErr == nil {
		k.shedErr = fmt.Errorf("%w (enter=%.0f%% exit=%.0f%%)",
			ErrAllocShed, k.pcfg.ShedEnterPSI, k.pcfg.ShedExitPSI)
	}
	return k.shedErr
}

// ladderTrace accumulates what one allocation's descent through the
// ladder cost and achieved; it feeds the enriched failure error and the
// per-alloc stall histogram.
type ladderTrace struct {
	rung        pressure.Rung
	reclaimed   uint64
	compacted   uint64
	shrunk      uint64
	kills       int
	stallCycles uint64
}

// pressureLadder runs the emergency rungs after the standard slow path
// (reclaim, compaction, urgent expansion) has failed. It returns the
// allocated block head on success. The cumulative stall charged to the
// allocation is bounded by ThrottleCeilingCycles by construction.
func (k *Kernel) pressureLadder(b *mem.Buddy, region psi.Region, order int, mt mem.MigrateType, src mem.Source, lt *ladderTrace) (uint64, bool) {
	cfg := k.pcfg
	want := mem.OrderPages(order)

	// Throttle rung: stall, reclaim, retry — escalating stalls, bounded
	// rounds, and an early escape when reclaim stops making progress
	// (which the PointReclaimProgress fault forces).
	lt.rung = pressure.RungThrottle
	k.esc.Note(pressure.RungThrottle, k.tick)
	k.AllocThrottled++
	for round := 0; round < cfg.ThrottleRounds; round++ {
		stall := cfg.ThrottleStall(round, lt.stallCycles)
		if stall == 0 {
			break
		}
		lt.stallCycles += stall
		k.ThrottleStallCycles += stall
		k.psi.AddStall(region, float64(stall)/float64(cfg.CyclesPerTick))
		if k.tp.Enabled() {
			k.tp.Emit(k.tick, telemetry.EvAllocThrottle, uint64(order), uint64(round), stall)
		}
		freed := k.reclaim(b, want*2)
		lt.reclaimed += freed
		if pfn, ok := b.Alloc(order, mt, src); ok {
			return pfn, true
		}
		if order > 0 && mt == mem.MigrateMovable {
			if pfn, ok := k.Compact(b, order, mt, src); ok {
				lt.compacted += want
				return pfn, true
			}
		}
		if freed == 0 {
			break
		}
	}

	// Resize rung: move the boundary in the requester's favour.
	if k.cfg.Mode == ModeContiguitas {
		lt.rung = pressure.RungResize
		k.esc.Note(pressure.RungResize, k.tick)
		var moved uint64
		if mt == mem.MigrateMovable {
			moved = k.EmergencyShrink(want * 2)
		} else {
			moved = k.ExpandUnmovable(want * 2)
		}
		lt.shrunk += moved
		if moved > 0 {
			if pfn, ok := b.Alloc(order, mt, src); ok {
				return pfn, true
			}
			if order > 0 && mt == mem.MigrateMovable {
				if pfn, ok := k.Compact(b, order, mt, src); ok {
					lt.compacted += want
					return pfn, true
				}
			}
		}
	}

	// OOM rung, the last resort. Page-cache allocations never kill —
	// like the kernel, dropping the request is strictly cheaper than
	// dropping a victim.
	if k.inCacheAlloc {
		return 0, false
	}
	lt.rung = pressure.RungOOM
	k.esc.Note(pressure.RungOOM, k.tick)
	for kill := 0; kill < cfg.MaxKillsPerAlloc; kill++ {
		idx, score := k.selectOOMVictim()
		if idx < 0 {
			break
		}
		v := k.victims[idx]
		name := v.OOMName()
		freed := v.OOMKill(k.tick)
		lt.kills++
		k.OOMKills++
		k.OOMKilledPages += freed
		k.oomHistory = append(k.oomHistory, pressure.Kill{
			Tick: k.tick, Victim: name, Badness: score, PagesFreed: freed,
		})
		if len(k.oomHistory) > oomHistoryCap {
			k.oomHistory = k.oomHistory[len(k.oomHistory)-oomHistoryCap:]
		}
		if k.tp.Enabled() {
			k.tp.Emit(k.tick, telemetry.EvOOMKill, uint64(idx), uint64(score), freed)
		}
		if pfn, ok := b.Alloc(order, mt, src); ok {
			return pfn, true
		}
		// The kill freed movable frames; manufacture contiguity or
		// region room from them before giving up or killing again.
		if order > 0 && mt == mem.MigrateMovable {
			if pfn, ok := k.Compact(b, order, mt, src); ok {
				lt.compacted += want
				return pfn, true
			}
		}
		if mt != mem.MigrateMovable && k.cfg.Mode == ModeContiguitas {
			if k.ExpandUnmovable(want*2) > 0 {
				if pfn, ok := b.Alloc(order, mt, src); ok {
					return pfn, true
				}
			}
		}
	}
	return 0, false
}

// selectOOMVictim picks the registered victim with the highest badness
// score, ties to the earliest registration. Returns (-1, 0) when no
// victim is killable (empty pools or non-positive scores).
func (k *Kernel) selectOOMVictim() (int, int64) {
	best, bestScore := -1, int64(0)
	total := k.pm.NPages
	for i, v := range k.victims {
		pages := v.OOMPages()
		if pages == 0 {
			continue
		}
		score := pressure.Badness(pages, total, v.OOMScoreAdj())
		if score <= 0 {
			continue
		}
		if best < 0 || score > bestScore {
			best, bestScore = i, score
		}
	}
	return best, bestScore
}

// EmergencyShrink shrinks the unmovable region on behalf of a starving
// movable allocation, bypassing the resizer's PSI evaluation but
// honouring its floor (MinUnmovableBytes) and per-step bound
// (MaxResizeStepBytes). A shrink requested while a migration is in
// flight (re-entered from a Mover callback) is deferred: the boundary
// must not move under an active copy. Returns the frames transferred.
func (k *Kernel) EmergencyShrink(wantPages uint64) uint64 {
	if k.cfg.Mode != ModeContiguitas {
		return 0
	}
	if k.migInFlight > 0 {
		k.EmergencyShrinkDeferred++
		return 0
	}
	floor := alignPageblock(mem.BytesToPages(k.cfg.MinUnmovableBytes))
	if floor < mem.PageblockPages {
		floor = mem.PageblockPages
	}
	maxStep := alignPageblock(mem.BytesToPages(k.cfg.MaxResizeStepBytes))
	step := resize.EmergencyStep(k.boundary, wantPages, floor, maxStep, mem.PageblockPages)
	if step == 0 {
		return 0
	}
	moved := k.ShrinkUnmovable(step)
	if moved > 0 {
		k.EmergencyShrinks++
		k.EmergencyShrinkPages += moved
		if k.tp.Enabled() {
			k.tp.Emit(k.tick, telemetry.EvEmergencyShrink, wantPages, moved, k.boundary)
		}
	}
	return moved
}

// updateAdmissionGate feeds the gate tracker one tick's pending movable
// stall (sampled before psi.EndTick clears it) and steps the hysteresis
// state machine. Called from EndTick when pressure is enabled.
func (k *Kernel) updateAdmissionGate() {
	f := k.psi.Pending(psi.RegionMovable)
	if f > 1 {
		f = 1
	}
	k.gatePSI.Tick(f)
	prev := k.gate.Since()
	if k.gate.Update(k.tick, k.gatePSI.Pressure(), k.pcfg.ShedEnterPSI, k.pcfg.ShedExitPSI) {
		if k.tp.Enabled() {
			shed := uint64(0)
			if k.gate.Shedding() {
				shed = 1
			}
			k.tp.Emit(k.tick, telemetry.EvAdmissionGate,
				shed, uint64(k.gatePSI.Pressure()*1000), k.tick-prev)
		}
	}
}

// pressureErr builds the enriched allocation-failure error: the rung
// the ladder bottomed out at and what each rung achieved, so failures
// are diagnosable from the error string alone. Errors wrap ErrNoMemory
// always and ErrOOMKill additionally when a kill fired.
func (k *Kernel) pressureErr(order int, mt mem.MigrateType, lt *ladderTrace) error {
	if lt.kills > 0 {
		return fmt.Errorf("%w after %w: order=%d mt=%v rung=%v reclaimed=%d compacted=%d shrunk=%d kills=%d stall_cycles=%d",
			ErrNoMemory, ErrOOMKill, order, mt, lt.rung, lt.reclaimed, lt.compacted, lt.shrunk, lt.kills, lt.stallCycles)
	}
	return fmt.Errorf("%w: order=%d mt=%v rung=%v reclaimed=%d compacted=%d shrunk=%d stall_cycles=%d",
		ErrNoMemory, order, mt, lt.rung, lt.reclaimed, lt.compacted, lt.shrunk, lt.stallCycles)
}

package kernel

import (
	"fmt"

	"contiguitas/internal/envelope"
	"contiguitas/internal/mem"
	"contiguitas/internal/pressure"
	"contiguitas/internal/psi"
	"contiguitas/internal/stats"
)

// Checkpoint/restore codec for the whole simulated machine.
//
// Quiesce point. A checkpoint is only meaningful at the EndTick
// boundary: migrations are synchronous within a tick (the retry ladder
// runs to completion inside one migrateTo call), so there is no
// in-flight migration to serialize — the ladder is quiesced by
// construction. Compaction, in contrast, keeps cross-tick state (per
// region scanner cursors, deferral backoff, and the retry queue of
// failed targets); that state is serialized explicitly, re-keyed from
// buddy pointers to stable region indices.
//
// Serialized versus re-derived:
//
//   - Serialized: the frame table (meta words, pageblock migratetypes),
//     buddy free lists in backing order, live-allocation records, the
//     reclaimable FIFO (including consumed-slot sentinels and the head
//     cursor — FIFO order is behavior), compaction cursors/defer/retry,
//     PSI tracker state, the RNG streams, counters, and the watchdog
//     stall accumulators.
//   - Re-derived on restore, then proven equivalent to the serialized
//     originals: the free-list index (VerifyFlIdxWitness), the buddy
//     block histograms and free totals (cross-checked inside
//     RestoreBuddy), the covering-order stamps (VerifyCoveringStamps),
//     the contiguity index (rebuilt cold and rescanned, compared against
//     the serialized Scan witness), and the reclaimable FIFO's linkage
//     (each handle's cacheIdx cross-checked against the FIFO slots).
//   - Rebuilt fresh, not state: page-handle values (the slot table),
//     memoized errors, scratch buffers, telemetry attachments (ring,
//     registry, sampler, sink), and the migration cost model. Callers
//     re-attach telemetry after restore; handle holders rehydrate
//     through PageAt.
//
// directCompact is not serialized: it is true only inside an explicit
// AllocHugeTLB call, never across the EndTick boundary a checkpoint is
// taken at.

// PageState is one serialized live allocation.
type PageState struct {
	PFN      uint64
	CacheIdx int32
	Order    int8
	MT       mem.MigrateType
	Src      mem.Source
	Pinned   bool
}

// CompactTargetState is one queued compaction retry target.
type CompactTargetState struct {
	PFN   uint64
	Order int
}

// CompactRegionState is one region's cross-tick compaction machinery.
// Region is the index into the kernel's region list (ModeLinux: 0 =
// zone; ModeContiguitas: 0 = unmovable, 1 = movable).
type CompactRegionState struct {
	Region     int
	Cursors    [mem.MaxOrder + 1]uint64
	DeferShift uint
	DeferUntil uint64
	Retry      []CompactTargetState
}

// State is the serializable state of one simulated machine, sufficient
// to rebuild a kernel that continues the run bit-for-bit.
type State struct {
	// Machine fingerprint: restore refuses a config that disagrees.
	MemBytes   uint64
	Mode       uint8
	Seed       uint64
	HasHWMover bool

	Tick         uint64
	Boundary     uint64
	RNGS0, RNGS1 uint64
	Counters     Counters

	WdMigStall     uint64
	WdCompactStall uint64

	Phys mem.PhysMemState
	// Regions holds the buddy states in region-list order (ModeLinux:
	// [zone]; ModeContiguitas: [unmovable, movable]).
	Regions []mem.BuddyState

	// Live lists every allocation handle in ascending PFN order.
	Live []PageState

	Reclaimable      []uint32
	ReclaimHead      int
	ReclaimablePages uint64

	Compact []CompactRegionState

	PSI psi.PerRegionState

	// Scan is the pre-checkpoint contiguity scan, kept as the
	// equivalence witness the restored (rebuilt-cold) index is proven
	// against.
	Scan *mem.ContiguityStats

	// HasPressure is part of the machine fingerprint: a snapshot taken
	// with the pressure ladder enabled must be restored with it enabled
	// (and vice versa), or the continuation would diverge.
	HasPressure bool
	// Pressure is the ladder's behavior-bearing state (nil when
	// disabled). Registered victims and the migration-in-flight count
	// are not serialized: victims re-register through their owners'
	// constructors, and checkpoints only happen at the EndTick boundary
	// where no migration is in flight.
	Pressure *PressureState
}

// PressureState is the serialized pressure-ladder state.
type PressureState struct {
	Gate       pressure.GateState
	GatePSI    psi.TrackerState
	Esc        pressure.Escalation
	OOMHistory []pressure.Kill
}

// regionBuddies returns the kernel's buddies in stable region order.
func (k *Kernel) regionBuddies() []*mem.Buddy {
	if k.cfg.Mode == ModeLinux {
		return []*mem.Buddy{k.zone}
	}
	return []*mem.Buddy{k.unmov, k.mov}
}

// ExportState serializes the machine. Call it only at the EndTick
// boundary (see the package comment on quiescing).
func (k *Kernel) ExportState() *State {
	st := &State{
		MemBytes:         k.cfg.MemBytes,
		Mode:             uint8(k.cfg.Mode),
		Seed:             k.cfg.Seed,
		HasHWMover:       k.cfg.HWMover != nil,
		Tick:             k.tick,
		Boundary:         k.boundary,
		Counters:         k.Counters,
		WdMigStall:       k.wdMigStall,
		WdCompactStall:   k.wdCompactStall,
		Phys:             k.pm.ExportState(),
		Reclaimable:      append([]uint32(nil), k.reclaimable...),
		ReclaimHead:      k.reclaimHead,
		ReclaimablePages: k.reclaimablePages,
		PSI:              k.psi.State(),
		Scan:             k.pm.Scan(mem.ScanOrders),
	}
	st.RNGS0, st.RNGS1 = k.rng.State()
	if k.pcfg != nil {
		st.HasPressure = true
		st.Pressure = &PressureState{
			Gate:       k.gate.State(),
			GatePSI:    k.gatePSI.State(),
			Esc:        k.esc,
			OOMHistory: append([]pressure.Kill(nil), k.oomHistory...),
		}
	}
	buddies := k.regionBuddies()
	for _, b := range buddies {
		st.Regions = append(st.Regions, b.ExportState())
	}
	for pfn := uint64(0); pfn < k.pm.NPages; pfn++ {
		p := k.live.get(pfn)
		if p == nil {
			continue
		}
		st.Live = append(st.Live, PageState{
			PFN: p.PFN, CacheIdx: p.cacheIdx, Order: p.Order,
			MT: p.MT, Src: p.Src, Pinned: p.Pinned,
		})
	}
	for i, b := range buddies {
		cs := CompactRegionState{Region: i}
		if cur := k.compactCursor[b]; cur != nil {
			cs.Cursors = *cur
		}
		if ds := k.compactDefer[b]; ds != nil {
			cs.DeferShift = ds.shift
			cs.DeferUntil = ds.until
		}
		for _, t := range k.compactRetry[b] {
			cs.Retry = append(cs.Retry, CompactTargetState{PFN: t.pfn, Order: t.order})
		}
		st.Compact = append(st.Compact, cs)
	}
	return st
}

// Restore rebuilds a machine from serialized state. cfg must describe
// the same machine the state was exported from (size, mode, seed, HW
// mover presence); ablation flags and cost parameters are taken from
// cfg as configuration. Telemetry is not restored — re-attach the ring,
// sampler, and sink afterwards. The injected fault state travels
// separately (fault.InjectorState); pass the rebuilt injector in
// cfg.Faults and Restore re-binds its clock to the new kernel.
//
// Restore re-derives every derived structure and proves it equivalent
// to the serialized original (see the package comment), then runs
// CheckInvariants before handing the kernel back.
func Restore(cfg Config, st *State) (*Kernel, error) {
	if cfg.MemBytes != st.MemBytes {
		return nil, fmt.Errorf("kernel: restore: config MemBytes %d, snapshot %d", cfg.MemBytes, st.MemBytes)
	}
	if uint8(cfg.Mode) != st.Mode {
		return nil, fmt.Errorf("kernel: restore: config mode %v, snapshot %v", cfg.Mode, Mode(st.Mode))
	}
	if cfg.Seed != st.Seed {
		return nil, fmt.Errorf("kernel: restore: config seed %d, snapshot %d", cfg.Seed, st.Seed)
	}
	if (cfg.HWMover != nil) != st.HasHWMover {
		return nil, fmt.Errorf("kernel: restore: config HW mover %v, snapshot %v", cfg.HWMover != nil, st.HasHWMover)
	}
	if (cfg.Pressure != nil) != st.HasPressure {
		return nil, fmt.Errorf("kernel: restore: config pressure %v, snapshot %v", cfg.Pressure != nil, st.HasPressure)
	}

	pm, err := mem.RestorePhysMem(st.Phys)
	if err != nil {
		return nil, err
	}
	wantRegions := 1
	if cfg.Mode == ModeContiguitas {
		wantRegions = 2
	}
	if len(st.Regions) != wantRegions {
		return nil, fmt.Errorf("kernel: restore: %d regions serialized, mode %v wants %d",
			len(st.Regions), cfg.Mode, wantRegions)
	}
	buddies := make([]*mem.Buddy, len(st.Regions))
	for i, bs := range st.Regions {
		b, err := mem.RestoreBuddy(pm, bs)
		if err != nil {
			return nil, fmt.Errorf("kernel: restore region %d: %w", i, err)
		}
		buddies[i] = b
	}

	k := &Kernel{
		cfg:              cfg,
		pm:               pm,
		boundary:         st.Boundary,
		psi:              psi.NewPerRegion(halfLifeOr(cfg.PSIHalfLifeTicks)),
		tick:             st.Tick,
		rng:              stats.NewRNG(cfg.Seed),
		live:             newLiveTable(pm.NPages),
		migCost:          DefaultMigrationCostModel(),
		reclaimable:      append([]uint32(nil), st.Reclaimable...),
		reclaimHead:      st.ReclaimHead,
		reclaimablePages: st.ReclaimablePages,
		wdMigStall:       st.WdMigStall,
		wdCompactStall:   st.WdCompactStall,
		Counters:         st.Counters,
	}
	k.rng.SetState(st.RNGS0, st.RNGS1)
	k.psi.SetState(st.PSI)
	if cfg.Pressure != nil {
		k.pcfg = cfg.Pressure.Normalized()
		k.gatePSI = psi.NewTracker(float64(k.pcfg.GateHalfLifeTicks))
		if st.Pressure == nil {
			return nil, fmt.Errorf("kernel: restore: HasPressure set but no pressure state serialized")
		}
		k.gate.SetState(st.Pressure.Gate)
		k.gatePSI.SetState(st.Pressure.GatePSI)
		k.esc = st.Pressure.Esc
		k.oomHistory = append([]pressure.Kill(nil), st.Pressure.OOMHistory...)
	}
	if cfg.Mode == ModeLinux {
		k.zone = buddies[0]
	} else {
		k.unmov, k.mov = buddies[0], buddies[1]
		if k.unmov.End() != st.Boundary || k.mov.Start() != st.Boundary {
			return nil, fmt.Errorf("kernel: restore: regions [%d,%d)+[%d,%d) disagree with boundary %d",
				k.unmov.Start(), k.unmov.End(), k.mov.Start(), k.mov.End(), st.Boundary)
		}
	}

	// Live handles: fresh slots, serialized contents. The frame table's
	// agreement (order, pin flags, allocated-head status) is proven by
	// CheckInvariants below.
	for _, ps := range st.Live {
		if ps.PFN >= pm.NPages {
			return nil, fmt.Errorf("kernel: restore: live pfn %d out of range", ps.PFN)
		}
		if k.live.get(ps.PFN) != nil {
			return nil, fmt.Errorf("kernel: restore: duplicate live pfn %d", ps.PFN)
		}
		p := k.live.newSlot()
		p.PFN, p.cacheIdx, p.Order = ps.PFN, ps.CacheIdx, ps.Order
		p.MT, p.Src, p.Pinned = ps.MT, ps.Src, ps.Pinned
		k.live.set(ps.PFN, p)
	}

	// Reclaimable FIFO: the serialized slots must agree with the linkage
	// re-derived from the handles' cacheIdx fields — every live slot
	// points at a handle that points back, and no handle claims a slot
	// the FIFO does not record.
	linked := 0
	for i, e := range k.reclaimable {
		if e == noCacheEntry {
			continue
		}
		p := k.live.get(uint64(e))
		if p == nil || p.cacheIdx != int32(i) {
			return nil, fmt.Errorf("kernel: restore: reclaimable slot %d (pfn %d) has no agreeing handle", i, e)
		}
		linked++
	}
	for _, ps := range st.Live {
		if ps.CacheIdx >= 0 {
			linked--
		}
	}
	if linked != 0 {
		return nil, fmt.Errorf("kernel: restore: reclaimable FIFO and handle cacheIdx linkage disagree")
	}

	// Compaction machinery, re-keyed from region indices to the new
	// buddy pointers.
	k.compactCursor = make(map[*mem.Buddy]*[mem.MaxOrder + 1]uint64)
	k.compactDefer = make(map[*mem.Buddy]*compactDeferState)
	k.compactRetry = make(map[*mem.Buddy][]compactTarget)
	for _, cs := range st.Compact {
		if cs.Region < 0 || cs.Region >= len(buddies) {
			return nil, fmt.Errorf("kernel: restore: compact state for region %d of %d", cs.Region, len(buddies))
		}
		b := buddies[cs.Region]
		cur := cs.Cursors
		k.compactCursor[b] = &cur
		k.compactDefer[b] = &compactDeferState{shift: cs.DeferShift, until: cs.DeferUntil}
		for _, t := range cs.Retry {
			k.compactRetry[b] = append(k.compactRetry[b], compactTarget{pfn: t.PFN, order: t.Order})
		}
	}

	if cfg.Faults != nil {
		cfg.Faults.SetClock(func() uint64 { return k.tick })
	}

	// Equivalence proofs over the re-derived structures.
	if err := pm.VerifyFlIdxWitness(st.Phys.FlIdx); err != nil {
		return nil, err
	}
	if err := pm.VerifyCoveringStamps(); err != nil {
		return nil, err
	}
	if st.Scan != nil {
		if *pm.Scan(mem.ScanOrders) != *st.Scan {
			return nil, fmt.Errorf("kernel: restore: rebuilt contiguity index disagrees with serialized scan witness")
		}
	}
	if err := k.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("kernel: restore: invariants: %w", err)
	}
	return k, nil
}

// PageAt returns the handle of the live allocation whose block starts
// at pfn, and false when none does. Restore callers use it to rehydrate
// handles they held before the checkpoint; handle values do not survive
// a restore, contents do.
func (k *Kernel) PageAt(pfn uint64) (Handle, bool) {
	if pfn >= k.pm.NPages {
		return Handle{}, false
	}
	if p := k.live.get(pfn); p != nil {
		return p.Handle(), true
	}
	return Handle{}, false
}

// Hash computes the canonical state digest: the FNV-1a of the state's
// gob value bytes (envelope.GobDigest), the same bytes a checkpoint
// carries, so every serialized field is covered by construction. Two
// machines with equal hashes at the same tick are byte-equivalent for
// every serialized structure; the chain hash in the snapshot envelope
// links these per-checkpoint digests into a tamper-evident history.
func (st *State) Hash() uint64 {
	h, err := envelope.GobDigest(st)
	if err != nil {
		panic("kernel: invariant violation: " + err.Error())
	}
	return h
}

// StateHash exports the machine and returns its canonical digest. It is
// O(machine size) — a checkpoint/verification operation, not a hot-path
// one.
func (k *Kernel) StateHash() uint64 { return k.ExportState().Hash() }

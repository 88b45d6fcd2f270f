// Package pressure holds the policy half of the memory-exhaustion
// survival subsystem: the allocation ladder's rung ordering, throttle
// pricing, the admission gate's hysteresis, and the OOM killer's
// badness arithmetic. Everything here is pure state-machine code with
// no kernel dependencies, so each policy is unit-testable in isolation
// and the kernel integration (internal/kernel/pressure.go) stays a
// thin mechanism layer. All state is exported through plain structs so
// it round-trips through CTGSNAP snapshots.
package pressure

// Rung identifies how far down the allocation ladder a request had to
// descend before it was satisfied (or finally failed). The order is
// the escalation order: a well-formed pressure profile only ever moves
// to higher rungs as footprint grows past capacity.
type Rung uint8

const (
	// RungFast: satisfied from the buddy free lists immediately.
	RungFast Rung = iota
	// RungReclaim: needed direct reclaim of page cache.
	RungReclaim
	// RungCompact: needed compaction to manufacture contiguity.
	RungCompact
	// RungThrottle: entered the throttle loop — cycle-priced stalls
	// with escalating backoff while reclaim retries make progress.
	RungThrottle
	// RungResize: needed an emergency region resize (unmovable shrink
	// for movable requests, expand for unmovable requests).
	RungResize
	// RungOOM: needed the OOM killer to free a victim's pages.
	RungOOM

	NumRungs = int(RungOOM) + 1
)

func (r Rung) String() string {
	switch r {
	case RungFast:
		return "fast"
	case RungReclaim:
		return "reclaim"
	case RungCompact:
		return "compact"
	case RungThrottle:
		return "throttle"
	case RungResize:
		return "resize"
	case RungOOM:
		return "oom"
	default:
		return "rung?"
	}
}

// Config parameterizes every rung of the ladder plus the admission
// gate. The zero value is usable: Normalized fills unset fields with
// the defaults, so callers can override only what they care about.
type Config struct {
	// ThrottleRounds bounds the throttle loop: each round stalls the
	// allocation, reclaims, and retries. Zero means DefaultConfig's.
	ThrottleRounds int
	// ThrottleBaseCycles is the stall charged on the first throttle
	// round; each further round doubles it.
	ThrottleBaseCycles uint64
	// ThrottleCeilingCycles caps the cumulative stall charged to one
	// allocation across all ladder rungs — the bounded-stall guarantee
	// the pressure sweep asserts (p99 alloc stall <= ceiling).
	ThrottleCeilingCycles uint64
	// CyclesPerTick converts stall cycles into the tick fractions the
	// PSI trackers consume (1 tick of full stall == CyclesPerTick).
	CyclesPerTick uint64

	// GateHalfLifeTicks is the half-life of the dedicated admission
	// PSI tracker. It is much shorter than the kernel's reporting
	// trackers so the gate both trips and reopens within tens of
	// ticks instead of sticking shut for a whole run.
	GateHalfLifeTicks uint64
	// ShedEnterPSI / ShedExitPSI are the admission hysteresis band in
	// PSI percent: shedding starts when the gate tracker crosses
	// ShedEnterPSI and stops only once it decays below ShedExitPSI.
	ShedEnterPSI float64
	ShedExitPSI  float64

	// MaxKillsPerAlloc bounds OOM kills charged to a single
	// allocation attempt.
	MaxKillsPerAlloc int
	// OOMBackoffTicks is how long the runner keeps a killed pool
	// shedded before re-admitting its demand.
	OOMBackoffTicks uint64
}

// DefaultConfig returns the ladder tuning used by the chaos soak and
// the pressure sweep.
func DefaultConfig() *Config {
	return &Config{
		ThrottleRounds:        4,
		ThrottleBaseCycles:    50_000,
		ThrottleCeilingCycles: 2_000_000,
		CyclesPerTick:         2_000_000,
		GateHalfLifeTicks:     25,
		ShedEnterPSI:          85,
		ShedExitPSI:           55,
		MaxKillsPerAlloc:      1,
		OOMBackoffTicks:       50,
	}
}

// Normalized returns a copy with every zero field replaced by its
// default, so partially specified configs behave predictably.
func (c *Config) Normalized() *Config {
	d := DefaultConfig()
	n := *c
	if n.ThrottleRounds <= 0 {
		n.ThrottleRounds = d.ThrottleRounds
	}
	if n.ThrottleBaseCycles == 0 {
		n.ThrottleBaseCycles = d.ThrottleBaseCycles
	}
	if n.ThrottleCeilingCycles == 0 {
		n.ThrottleCeilingCycles = d.ThrottleCeilingCycles
	}
	if n.CyclesPerTick == 0 {
		n.CyclesPerTick = d.CyclesPerTick
	}
	if n.GateHalfLifeTicks == 0 {
		n.GateHalfLifeTicks = d.GateHalfLifeTicks
	}
	if n.ShedEnterPSI == 0 {
		n.ShedEnterPSI = d.ShedEnterPSI
	}
	if n.ShedExitPSI == 0 {
		n.ShedExitPSI = d.ShedExitPSI
	}
	if n.ShedExitPSI > n.ShedEnterPSI {
		n.ShedExitPSI = n.ShedEnterPSI
	}
	if n.MaxKillsPerAlloc <= 0 {
		n.MaxKillsPerAlloc = d.MaxKillsPerAlloc
	}
	if n.OOMBackoffTicks == 0 {
		n.OOMBackoffTicks = d.OOMBackoffTicks
	}
	return &n
}

// ThrottleStall prices one throttle round: base << round, with the
// cumulative total (spent so far + this round) clamped to the ceiling.
// A zero return means the budget is exhausted and the ladder must
// escalate instead of stalling again.
func (c *Config) ThrottleStall(round int, spent uint64) uint64 {
	if spent >= c.ThrottleCeilingCycles {
		return 0
	}
	stall := c.ThrottleBaseCycles
	if round > 0 && round < 64 {
		stall = c.ThrottleBaseCycles << uint(round)
	}
	if spent+stall > c.ThrottleCeilingCycles {
		stall = c.ThrottleCeilingCycles - spent
	}
	return stall
}

// Gate is the admission-control state machine: a Schmitt trigger over
// the short-half-life PSI signal. While shedding, new movable
// allocations without a bypass flag fail fast with ErrAllocShed
// instead of descending the ladder, letting pressure decay.
type Gate struct {
	shedding bool
	since    uint64 // tick of the last state change
}

// Update feeds the gate one end-of-tick PSI sample (percent) against
// the hysteresis band. It reports whether the gate changed state.
func (g *Gate) Update(tick uint64, psiPct, enter, exit float64) bool {
	switch {
	case !g.shedding && psiPct >= enter:
		g.shedding = true
		g.since = tick
		return true
	case g.shedding && psiPct < exit:
		g.shedding = false
		g.since = tick
		return true
	}
	return false
}

// Shedding reports whether the gate is currently refusing admission.
func (g *Gate) Shedding() bool { return g.shedding }

// Since returns the tick of the last gate transition.
func (g *Gate) Since() uint64 { return g.since }

// GateState is the serializable gate snapshot.
type GateState struct {
	Shedding bool
	Since    uint64
}

// State exports the gate for a snapshot.
func (g *Gate) State() GateState { return GateState{Shedding: g.shedding, Since: g.since} }

// SetState restores the gate from a snapshot.
func (g *Gate) SetState(s GateState) { g.shedding = s.Shedding; g.since = s.Since }

// Badness scores an OOM victim the way Linux's oom_badness does:
// points proportional to the victim's resident pages, adjusted by an
// oom_score_adj-style bias expressed in thousandths of total memory.
// Higher is more killable; non-positive scores are never killed.
func Badness(pages, totalPages uint64, adj int64) int64 {
	points := int64(pages)
	points += adj * int64(totalPages) / 1000
	return points
}

// Kill records one OOM killer invocation for snapshots and reports.
type Kill struct {
	Tick       uint64
	Victim     string
	Badness    int64
	PagesFreed uint64
}

// Escalation accumulates the ladder profile of a run: how many times
// each rung was reached and the first tick it was reached at. The
// sweep asserts the profile is monotone — rungs are first reached in
// escalation order as footprint ramps past capacity.
type Escalation struct {
	Hits [NumRungs]uint64
	// FirstTick holds tick+1 of the first hit (0 = never reached), so
	// the zero value is meaningful and hashes deterministically.
	FirstTick [NumRungs]uint64
}

// Note records one visit to rung r at the given tick.
func (e *Escalation) Note(r Rung, tick uint64) {
	e.Hits[r]++
	if e.FirstTick[r] == 0 {
		e.FirstTick[r] = tick + 1
	}
}

// Ordered reports whether the escalation profile is monotone: among
// the emergency rungs (throttle, resize, OOM), each rung that was
// reached was first reached no earlier than the rung before it. The
// light rungs (reclaim/compact) fire routinely from tick 0, so they
// are excluded from the ordering requirement.
func (e *Escalation) Ordered() bool {
	last := uint64(0)
	for r := int(RungThrottle); r < NumRungs; r++ {
		if e.FirstTick[r] == 0 {
			continue
		}
		if e.FirstTick[r] < last {
			return false
		}
		last = e.FirstTick[r]
	}
	return true
}

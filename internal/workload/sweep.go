package workload

import (
	"fmt"

	"contiguitas/internal/kernel"
	"contiguitas/internal/pressure"
)

// SweepOptions configures a pressure sweep: a Web-profile service whose
// footprint target ramps linearly from StartFactor to PeakFactor times
// machine memory, driving the kernel deliberately past exhaustion. The
// sweep is the acceptance experiment for the pressure ladder — the
// machine must degrade (throttle, shed, shrink, kill) and keep running,
// never panic or corrupt state.
type SweepOptions struct {
	MemBytes uint64
	Ticks    uint64
	Seed     uint64
	// CheckEvery is the invariant-checkpoint cadence (default 50).
	CheckEvery uint64
	// StartFactor and PeakFactor are the demand ramp endpoints as
	// multiples of machine memory (defaults 0.5 and 2.0).
	StartFactor float64
	PeakFactor  float64
	// OnKernel observes the freshly booted kernel (telemetry attach).
	OnKernel func(*kernel.Kernel)
	// Progress, when set, observes each invariant checkpoint.
	Progress func(tick uint64, factor float64, violation error)
}

// SweepReport summarises a completed pressure sweep.
type SweepReport struct {
	Ticks      uint64
	Completed  bool
	Violations []string
	Counters   kernel.Counters

	// StallP99 is the 99th-percentile per-allocation ladder stall in
	// cycles; StallCeiling is the configured per-allocation bound it must
	// stay under.
	StallP99     uint64
	StallCeiling uint64

	// Escalation is the ladder-usage profile; EscalationOrdered reports
	// whether the emergency rungs were first reached in ladder order
	// (throttle before resize before OOM).
	Escalation        pressure.Escalation
	EscalationOrdered bool

	OOMHistory     []pressure.Kill
	OOMKillsTaken  uint64
	FinalStateHash uint64
}

// RunPressureSweep drives the exhaustion ramp and reports how the
// ladder degraded. Deterministic in SweepOptions.
func RunPressureSweep(opts SweepOptions) (*SweepReport, error) {
	if opts.Ticks == 0 {
		return nil, fmt.Errorf("sweep: zero-tick sweep")
	}
	if opts.CheckEvery == 0 {
		opts.CheckEvery = 50
	}
	if opts.StartFactor == 0 {
		opts.StartFactor = 0.5
	}
	if opts.PeakFactor == 0 {
		opts.PeakFactor = 2.0
	}
	cfg := kernel.DefaultConfig(kernel.ModeContiguitas)
	cfg.MemBytes = opts.MemBytes
	cfg.InitialUnmovableBytes = opts.MemBytes / 8
	cfg.MinUnmovableBytes = opts.MemBytes / 32
	cfg.MaxUnmovableBytes = opts.MemBytes / 2
	cfg.HWMover = kernel.NewAnalyticMover()
	cfg.Seed = opts.Seed
	// The sweep always runs the default ladder — that is the point.
	cfg.Pressure = pressure.DefaultConfig()
	k := kernel.New(cfg)
	// Build the registry up front so the alloc-stall histogram observes
	// from the first tick even when no tracer is attached.
	k.Metrics()
	if opts.OnKernel != nil {
		opts.OnKernel(k)
	}

	base := Web()
	baseTotal := base.UserFrac + base.PageCacheFrac + base.UnmovableFrac
	r := NewRunner(k, base, opts.Seed+1)

	rep := &SweepReport{StallCeiling: k.PressureConfig().ThrottleCeilingCycles}
	for tick := uint64(1); tick <= opts.Ticks; tick++ {
		// Linear demand ramp: scale every footprint fraction so the
		// combined target is factor × machine memory.
		frac := float64(tick-1) / float64(opts.Ticks-1)
		if opts.Ticks == 1 {
			frac = 1
		}
		factor := opts.StartFactor + (opts.PeakFactor-opts.StartFactor)*frac
		scale := factor / baseTotal
		r.P.UserFrac = base.UserFrac * scale
		r.P.SmallUserFrac = base.SmallUserFrac * scale
		r.P.PageCacheFrac = base.PageCacheFrac * scale
		r.P.UnmovableFrac = base.UnmovableFrac * scale

		r.Step()

		if tick%opts.CheckEvery == 0 || tick == opts.Ticks {
			verr := k.CheckInvariants()
			if verr == nil {
				verr = scanEquivalence(k)
			}
			if verr != nil && len(rep.Violations) < maxViolations {
				rep.Violations = append(rep.Violations, fmt.Sprintf("tick %d: %v", tick, verr))
			}
			if opts.Progress != nil {
				opts.Progress(tick, factor, verr)
			}
		}
	}

	rep.Ticks = opts.Ticks
	rep.Completed = true
	rep.Counters = k.Counters
	if h := k.Metrics().Histogram("alloc_stall_cycles"); h != nil {
		rep.StallP99 = h.Quantile(0.99)
	}
	rep.Escalation = k.Escalation()
	rep.EscalationOrdered = rep.Escalation.Ordered()
	rep.OOMHistory = k.OOMHistory()
	rep.OOMKillsTaken = r.OOMKillsTaken
	rep.FinalStateHash = k.StateHash()
	return rep, nil
}

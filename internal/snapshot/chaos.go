package snapshot

import (
	"fmt"

	"contiguitas/internal/fault"
	"contiguitas/internal/kernel"
	"contiguitas/internal/pressure"
	"contiguitas/internal/telemetry"
	"contiguitas/internal/workload"
)

// Checkpointer takes chained checkpoints of a running machine and
// maintains the rolling on-disk copy. Each Take seals a fresh envelope
// against the running chain digest and (when Path is set) atomically
// replaces the checkpoint file, so the file always holds the newest
// complete checkpoint.
type Checkpointer struct {
	// Path is the checkpoint file ("" keeps checkpoints in memory only).
	Path string

	seq   uint64
	chain uint64
	last  *Envelope
}

// Take checkpoints the machine at the EndTick quiesce boundary. runner
// and inj may be nil (kernel-only runs, faultless runs). The checkpoint
// is announced on the kernel's tracepoint ring as an EvCheckpoint
// carrying (seq, state hash, chain hash).
func (c *Checkpointer) Take(tick uint64, k *kernel.Kernel, r *workload.Runner, inj *fault.Injector) (*Envelope, error) {
	e := &Envelope{
		Seq:  c.seq,
		Tick: tick,
		Machine: Machine{
			Kernel: k.ExportState(),
			Faults: inj.State(),
		},
	}
	if r != nil {
		e.Machine.Runner = r.ExportState()
	}
	c.chain = e.Seal(c.chain)
	c.seq++
	if tp := k.Tracer(); tp.Enabled() {
		tp.Emit(tick, telemetry.EvCheckpoint, e.Seq, e.StateHash, e.ChainHash)
	}
	if c.Path != "" {
		if err := Write(c.Path, e); err != nil {
			return nil, err
		}
	}
	c.last = e
	return e, nil
}

// Last returns the most recent checkpoint (nil before the first Take).
func (c *Checkpointer) Last() *Envelope { return c.last }

// SetChain seeds the running chain digest and sequence number — used
// when resuming, so checkpoints taken after the restore extend the
// original chain instead of starting a new one.
func (c *Checkpointer) SetChain(seq, chain uint64) {
	c.seq = seq
	c.chain = chain
}

// Traced describes one resumable traced run: a workload runner driving
// a kernel tick by tick, with rolling checkpoints. It is the loop behind
// contigsim -trace and fleetscan -trace.
type Traced struct {
	Config  kernel.Config
	Profile workload.Profile
	Seed    uint64
	// Ticks is the end tick; a resumed run starts at Resume.Tick.
	Ticks uint64
	// Every > 0 checkpoints the machine to Path (see Checkpointer)
	// every Every ticks, at the end-of-tick quiesce boundary.
	Every uint64
	Path  string
	// Resume, when non-nil, restores the kernel and runner from this
	// checkpoint and extends its chain instead of booting fresh.
	Resume *Envelope
	// Start runs once on the booted or restored kernel before the first
	// tick, with the start tick; callers instrument the kernel here.
	Start func(k *kernel.Kernel, tick uint64)
	// Tick runs after each tick's workload step, before its checkpoint.
	Tick func(k *kernel.Kernel, tick uint64)
}

// Run drives the traced run to t.Ticks and returns the kernel and the
// last checkpoint taken (nil when none was). Only simulator state is
// checkpointed, so a resumed run's telemetry restarts at the resume
// tick, while its checkpoints equal the uninterrupted run's byte for
// byte.
func (t *Traced) Run() (*kernel.Kernel, *Envelope, error) {
	cp := &Checkpointer{Path: t.Path}
	var k *kernel.Kernel
	var r *workload.Runner
	start := uint64(0)
	if e := t.Resume; e != nil {
		if e.Machine.Runner == nil {
			return nil, nil, fmt.Errorf("resume: checkpoint seq %d carries no runner state", e.Seq)
		}
		var err error
		if k, err = kernel.Restore(t.Config, e.Machine.Kernel); err != nil {
			return nil, nil, fmt.Errorf("resume: %w", err)
		}
		if r, err = workload.RestoreRunner(k, t.Profile, t.Seed, e.Machine.Runner); err != nil {
			return nil, nil, fmt.Errorf("resume: %w", err)
		}
		start = e.Tick
		cp.SetChain(e.Seq+1, e.ChainHash)
	} else {
		k = kernel.New(t.Config)
		r = workload.NewRunner(k, t.Profile, t.Seed)
	}
	if t.Start != nil {
		t.Start(k, start)
	}
	for tick := start; tick < t.Ticks; tick++ {
		r.Step()
		if t.Tick != nil {
			t.Tick(k, tick)
		}
		if t.Every > 0 && (tick+1)%t.Every == 0 {
			if _, err := cp.Take(tick+1, k, r, nil); err != nil {
				return nil, nil, fmt.Errorf("checkpoint: %w", err)
			}
		}
	}
	return k, cp.Last(), nil
}

// RestoreChaos rebuilds the full machine a chaos checkpoint captured:
// kernel, workload runner, and fault injector, re-wired together
// (injector into the kernel config with its clock re-bound, runner over
// the restored live table). opts must be the options of the original
// soak — the machine fingerprint is validated by kernel.Restore.
func RestoreChaos(opts workload.ChaosOptions, e *Envelope) (*kernel.Kernel, *workload.Runner, *fault.Injector, error) {
	if e.Machine.Runner == nil {
		return nil, nil, nil, fmt.Errorf("snapshot: chaos restore needs runner state (seq %d has none)", e.Seq)
	}
	inj := fault.FromState(e.Machine.Faults)
	if inj == nil {
		// A chaos soak always runs with an injector, armed or not.
		inj = fault.New(opts.Seed)
	}
	cfg := workload.ChaosKernelConfig(opts)
	cfg.Faults = inj
	k, err := kernel.Restore(cfg, e.Machine.Kernel)
	if err != nil {
		return nil, nil, nil, err
	}
	r, err := workload.RestoreRunner(k, opts.Profile, opts.Seed+1, e.Machine.Runner)
	if err != nil {
		return nil, nil, nil, err
	}
	return k, r, inj, nil
}

// ResumeChaos restores the machine from e and continues the soak to
// completion. Kill and snapshot options are cleared unless the caller
// re-arms them on the options it passes.
func ResumeChaos(opts workload.ChaosOptions, e *Envelope) (*workload.ChaosReport, error) {
	k, r, inj, err := RestoreChaos(opts, e)
	if err != nil {
		return nil, err
	}
	opts.Resume = &workload.ChaosResume{K: k, Runner: r, Injector: inj, StartTick: e.Tick}
	opts.KillAtTick = 0
	return workload.RunChaos(opts)
}

// KillResumeResult is the outcome of one kill-and-resume equivalence
// experiment.
type KillResumeResult struct {
	// Golden is the uninterrupted run; Killed the run crashed at
	// KillAtTick; Resumed the continuation restored from the last
	// checkpoint the killed run wrote.
	Golden, Killed, Resumed *workload.ChaosReport
	// Checkpoint is the envelope the resume started from.
	Checkpoint *Envelope
	// Match reports whether the resumed run's final state hash, full
	// counter set, and OOM-kill history equal the golden run's.
	Match bool
	// Violations aggregates every invariant failure either completed run
	// observed (golden and resumed; the killed run stops before its first
	// checkpoint when killAt < every). A non-empty list must fail the
	// caller even when Match holds — identical corruption is still
	// corruption.
	Violations []string
}

// KillAndResume runs the kill-and-resume equivalence experiment: a
// golden uninterrupted soak (no checkpointing — proving checkpoints are
// observation-only), then the same soak checkpointing every
// `every` ticks and killed at `killAt`, then a resume from the killed
// run's last on-disk checkpoint. The resumed run must land on exactly
// the golden run's final state hash and counters.
func KillAndResume(opts workload.ChaosOptions, every, killAt uint64, path string) (*KillResumeResult, error) {
	if every == 0 || killAt < every {
		return nil, fmt.Errorf("snapshot: kill-and-resume needs every>0 and killAt>=every (got %d, %d)", every, killAt)
	}
	res := &KillResumeResult{}

	gopts := opts
	gopts.SnapshotEvery, gopts.OnSnapshot, gopts.KillAtTick, gopts.Resume = 0, nil, 0, nil
	golden, err := workload.RunChaos(gopts)
	if err != nil {
		return nil, fmt.Errorf("snapshot: golden run: %w", err)
	}
	res.Golden = golden

	cp := &Checkpointer{Path: path}
	var cpErr error
	kopts := opts
	kopts.Resume = nil
	kopts.SnapshotEvery = every
	kopts.OnSnapshot = func(tick uint64, k *kernel.Kernel, r *workload.Runner, inj *fault.Injector) {
		if _, err := cp.Take(tick, k, r, inj); err != nil && cpErr == nil {
			cpErr = err
		}
	}
	kopts.KillAtTick = killAt
	killed, err := workload.RunChaos(kopts)
	if err != nil {
		return nil, fmt.Errorf("snapshot: killed run: %w", err)
	}
	if cpErr != nil {
		return nil, fmt.Errorf("snapshot: checkpointing: %w", cpErr)
	}
	res.Killed = killed

	e, err := Read(path)
	if err != nil {
		return nil, err
	}
	res.Checkpoint = e

	ropts := opts
	ropts.SnapshotEvery, ropts.OnSnapshot, ropts.KillAtTick = 0, nil, 0
	resumed, err := ResumeChaos(ropts, e)
	if err != nil {
		return nil, fmt.Errorf("snapshot: resume: %w", err)
	}
	res.Resumed = resumed

	res.Match = resumed.FinalStateHash == golden.FinalStateHash &&
		resumed.FinalCounters == golden.FinalCounters &&
		sameKills(resumed.OOMHistory, golden.OOMHistory)
	for _, rep := range []*workload.ChaosReport{golden, killed, resumed} {
		res.Violations = append(res.Violations, rep.Violations...)
	}
	return res, nil
}

// sameKills compares two OOM-kill logs entry by entry.
func sameKills(a, b []pressure.Kill) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

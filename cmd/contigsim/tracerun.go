package main

import (
	"fmt"
	"os"

	"contiguitas/internal/kernel"
	"contiguitas/internal/mem"
	"contiguitas/internal/obsv"
	"contiguitas/internal/psi"
	"contiguitas/internal/snapshot"
	"contiguitas/internal/telemetry"
	"contiguitas/internal/workload"
)

// traceRun drives one fully instrumented kernel and exports every
// telemetry artifact: a Perfetto-loadable Chrome trace with distinct
// migration/compaction/resize tracks, the per-tick metrics JSONL, an
// optional greppable text timeline, and the Fig. 13-style migration
// latency histograms printed to stdout.
//
// With ckptEvery > 0 the full machine is checkpointed to ckptOut every
// ckptEvery ticks at the end-of-tick quiesce boundary; with resume set
// the run restores from that file and continues to the same end tick
// (the telemetry ring restarts — only simulator state is checkpointed).
func traceRun(mode kernel.Mode, memBytes, ticks, seed uint64, traceOut, metricsOut, timelineOut string, ckptEvery uint64, ckptOut, resume string) error {
	cfg := kernel.DefaultConfig(mode)
	cfg.MemBytes = memBytes
	cfg.InitialUnmovableBytes = memBytes / 8
	cfg.MinUnmovableBytes = memBytes / 32
	cfg.MaxUnmovableBytes = memBytes / 2
	cfg.HWMover = kernel.NewAnalyticMover()
	cfg.Seed = seed

	// The chaos soak's overcommitted Web profile: enough pressure that
	// reclaim, compaction, and the migration ladder all see traffic.
	p := workload.Web()
	p.UserFrac = 0.79
	p.PageCacheFrac = 0.09

	run := snapshot.Traced{
		Config: cfg, Profile: p, Seed: seed, Ticks: ticks,
		Every: ckptEvery, Path: ckptOut,
	}
	if resume != "" {
		e, err := snapshot.Read(resume)
		if err != nil {
			return err
		}
		run.Resume = e
	}
	var in *obsv.Instrumented
	run.Start = func(k *kernel.Kernel, tick uint64) {
		if e := run.Resume; e != nil {
			fmt.Printf("resumed from %s: seq=%d tick=%d state=%016x\n", resume, e.Seq, e.Tick, e.StateHash)
		}
		in = obsvHandle.Instrument(k, 1<<16, int(ticks)+1, tick)
	}
	run.Tick = func(k *kernel.Kernel, tick uint64) {
		in.Pub.Pump(tick)
		// Deterministic pulses keep every timeline track populated: the
		// HugeTLB probe forces direct compaction, the defrag pass drives
		// the hardware mover.
		if tick%25 == 0 {
			huge := k.AllocHugeTLB(mem.Order2M, 2)
			k.FreeHugeTLB(&huge)
		}
		if mode == kernel.ModeContiguitas && tick%50 == 49 {
			k.DefragUnmovable()
		}
	}
	k, last, err := run.Run()
	if err != nil {
		return err
	}
	in.Pub.Publish(ticks)
	if last != nil {
		fmt.Printf("last snapshot: %s seq=%d tick=%d state=%016x chain=%016x\n",
			ckptOut, last.Seq, last.Tick, last.StateHash, last.ChainHash)
	}
	if err := in.Export(traceOut, metricsOut, timelineOut); err != nil {
		return fmt.Errorf("telemetry export: %w", err)
	}

	fmt.Printf("== traced run: %s, %d MiB, %d ticks ==\n", mode, memBytes>>20, ticks)
	fmt.Printf("trace:   %s (load in Perfetto / chrome://tracing)\n", traceOut)
	fmt.Printf("metrics: %s\n", metricsOut)
	if timelineOut != "" {
		fmt.Printf("timeline: %s\n", timelineOut)
	}
	fmt.Printf("events: %d retained, %d overwritten (ring cap %d)\n",
		in.Ring.Len(), in.Ring.Overwritten(), in.Ring.Cap())

	fmt.Println("\n-- per-tick stall/latency breakdown --")
	w := table()
	c := k.Counters
	fmt.Fprintf(w, "ticks\t%d\n", k.Tick())
	fmt.Fprintf(w, "allocations\t%d ok, %d failed\n", c.AllocOK, c.AllocFail)
	fmt.Fprintf(w, "direct reclaims\t%d (%.3f/tick)\n", c.DirectReclaim, float64(c.DirectReclaim)/float64(k.Tick()))
	fmt.Fprintf(w, "compaction\t%d runs, %d success, %d deferred\n", c.CompactRuns, c.CompactSuccess, c.CompactDeferred)
	fmt.Fprintf(w, "sw migrations\t%d (%d cycles total)\n", c.SWMigrations, c.SWMigrationCycles)
	fmt.Fprintf(w, "hw migrations\t%d (%d cycles total)\n", c.HWMigrations, c.HWMigrationCycles)
	fmt.Fprintf(w, "psi unmovable\t%.2f%% (lifetime stall %.1f ticks)\n",
		k.PSI().Pressure(psi.RegionUnmovable), k.PSI().Snapshot(psi.RegionUnmovable).TotalStall)
	fmt.Fprintf(w, "psi movable\t%.2f%% (lifetime stall %.1f ticks)\n",
		k.PSI().Pressure(psi.RegionMovable), k.PSI().Snapshot(psi.RegionMovable).TotalStall)
	w.Flush()

	fmt.Println("\n-- migration latency histograms (Fig. 13 style) --")
	return telemetry.WriteHistograms(os.Stdout, k.Metrics(), "cycles")
}

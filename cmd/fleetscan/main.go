// Command fleetscan runs the paper's §2 fleet study: it samples many
// simulated servers running randomized workload mixes for randomized
// uptimes, scans each server's physical memory, and prints
//
//   - Figure 4: the CDF of free-memory contiguity at 2MB/4MB/32MB/1GB,
//   - Figure 5: the CDF of unmovable blocks at the same granularities,
//   - Figure 6: the breakdown of unmovable allocations by source, and
//   - the §2.4 uptime-versus-contiguity correlation.
//
// The study runs as a supervised sharded campaign (internal/supervise):
//
//	fleetscan -soak -kill-every 3            # kill-heavy determinism gate
//	fleetscan -soak -state-dir d -kill-after 5   # die mid-campaign...
//	fleetscan -soak -resume d                    # ...and finish from disk
//
// -soak injects shard kills and checkpoint-write failures, then fails
// (exit 2) unless the supervised study is byte-identical to an unfaulted
// same-seed run with zero quarantined shards.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"text/tabwriter"

	"contiguitas"
	"contiguitas/internal/cli"
	"contiguitas/internal/core"
	"contiguitas/internal/fleet"
	"contiguitas/internal/kernel"
	"contiguitas/internal/mem"
	"contiguitas/internal/obsv"
	"contiguitas/internal/prof"
	"contiguitas/internal/resultcache"
	"contiguitas/internal/service"
	"contiguitas/internal/snapshot"
	"contiguitas/internal/stats"
	"contiguitas/internal/workload"
)

// obsvHandle is the -serve plane; nil without the flag, and every use
// of it is nil-safe.
var obsvHandle *obsv.Handle

func main() {
	servers := flag.Int("servers", 200, "number of servers to sample")
	memMB := flag.Uint64("mem", 1024, "server memory in MiB")
	minTicks := flag.Uint64("min-uptime", 60, "minimum uptime in ticks")
	maxTicks := flag.Uint64("max-uptime", 600, "maximum uptime in ticks")
	seed := flag.Uint64("seed", 1, "study seed")
	design := flag.String("design", "linux", "memory-management design (linux|contiguitas)")
	shards := flag.Int("shards", 0, "supervised campaign shards (0 picks the default for -servers)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	trace := flag.Bool("trace", false, "also run one instrumented representative server and export its telemetry")
	traceOut := flag.String("trace-out", "results/fleet-trace.json", "Chrome trace_event output path (with -trace)")
	metricsOut := flag.String("metrics-out", "results/fleet-metrics.jsonl", "per-tick metrics JSONL output path (with -trace)")
	ckptEvery := flag.Uint64("checkpoint-every", 0, "checkpoint the -trace representative server every N ticks (0 disables)")
	ckptOut := flag.String("checkpoint-out", "results/fleet.snap", "rolling checkpoint path (with -checkpoint-every)")
	resume := flag.String("resume", "", "resume path: a representative-server snapshot with -trace, or a campaign state directory with -soak")
	soak := flag.Bool("soak", false, "run the kill-heavy supervision soak instead of printing the study")
	stateDir := flag.String("state-dir", "", "campaign state directory for -soak (manifest + shard checkpoints; empty keeps state in memory)")
	killEvery := flag.Uint64("kill-every", 3, "with -soak, kill a shard on every Nth server it completes (>= 2; 0 disables)")
	ckptFailProb := flag.Float64("ckpt-fail-prob", 0.2, "with -soak, probability an injected fault fails a shard checkpoint write")
	killAfter := flag.Uint64("kill-after", 0, "with -soak, exit the whole process after this many shard crashes (0 disables; resume with -soak -resume <dir>)")
	minKills := flag.Uint64("min-kills", 5, "with -soak, fail unless at least this many shard kills were injected")
	sweep := flag.Bool("sweep", false, "run the design/mem/jitter cross-product grid instead of one study")
	sweepDesigns := flag.String("sweep-designs", "linux,contiguitas", "comma-separated designs for -sweep")
	sweepMems := flag.String("sweep-mems", "512,1024", "comma-separated server memory sizes in MiB for -sweep")
	sweepJitters := flag.String("sweep-jitters", "0,0.2", "comma-separated jitter fractions for -sweep")
	sweepOut := flag.String("sweep-out", "", "write the canonical sweep results file here (byte-identical across warm/cold runs)")
	cacheDir := flag.String("cache-dir", "", "content-addressed shard result cache directory (empty disables)")
	noCache := flag.Bool("no-cache", false, "ignore -cache-dir and run uncached")
	serve := flag.String("serve", "", "serve the live observability HTTP plane on this address (e.g. :8080 or :0; empty disables)")
	cli.Parse(flag.CommandLine, os.Args[1:])

	if *resume != "" && !*soak && !*trace {
		// A -resume with nothing to resume into must not silently run a
		// fresh study — that reads as "resumed fine" to the caller.
		cli.Usagef("fleetscan: -resume needs -soak (campaign state directory) or -trace (representative-server snapshot)")
	}
	d, err := service.ParseDesign(*design)
	if err != nil {
		cli.Usagef("fleetscan: %v", err)
	}

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	cli.Check(err)
	defer stopProf()

	obsvHandle, err = obsv.MountCLI(*serve)
	cli.Check(err)
	defer obsvHandle.Close()

	cfg := contiguitas.DefaultFleetConfig()
	cfg.Servers = *servers
	cfg.MemBytes = *memMB << 20
	cfg.TicksMin = *minTicks
	cfg.TicksMax = *maxTicks
	cfg.Seed = *seed
	cfg.Shards = *shards
	cfg.Design = d

	// The shard result cache: plain runs and sweeps share it; -no-cache
	// wins over -cache-dir so scripts can flip one switch for A/B runs.
	var cache resultcache.Cache
	if *cacheDir != "" && !*noCache {
		cache = resultcache.NewDir(*cacheDir, fleet.CacheSchemaVersion)
	}

	if *sweep {
		spec := campaignSpec("sweep", cfg)
		spec.Designs = splitCSV(*sweepDesigns, "-sweep-designs", func(s string) (string, error) { return s, nil })
		spec.MemsMiB = splitCSV(*sweepMems, "-sweep-mems", func(s string) (uint64, error) { return strconv.ParseUint(s, 10, 64) })
		spec.Jitters = splitCSV(*sweepJitters, "-sweep-jitters", func(s string) (float64, error) { return strconv.ParseFloat(s, 64) })
		runSweep(spec, *sweepOut, cache)
		return
	}

	if *soak {
		if *killEvery == 1 {
			cli.Usagef("fleetscan: -kill-every must be >= 2 (a shard killed on every server can never progress)")
		}
		runSoak(cfg, soakOptions{
			dir:          *stateDir,
			resumeDir:    *resume,
			killEvery:    *killEvery,
			ckptFailProb: *ckptFailProb,
			killAfter:    *killAfter,
			minKills:     *minKills,
		})
		return
	}

	spec := campaignSpec("study", cfg)
	spec.Designs = []string{*design}
	spec.MemsMiB = []uint64{*memMB}
	spec.Jitters = []float64{cfg.JitterFrac}
	var s *fleet.Study
	st := runCampaign(spec, cache,
		fmt.Sprintf("scanning %d servers of %d MiB (%s design)...\n", cfg.Servers, *memMB, *design),
		func(_ service.Cell, cell *fleet.Study) { s = cell })
	fmt.Println(cacheLine(st, cache))

	if *trace {
		if err := traceRepresentative(cfg, *maxTicks, *traceOut, *metricsOut, *ckptEvery, *ckptOut, *resume); err != nil {
			cli.Runtimef("fleetscan: %v", err)
		}
	}

	fmt.Println("\n== Figure 4: CDF of servers vs contiguity (fraction of free memory) ==")
	// CDF of servers whose contiguity is at most x.
	cdfTable("contig >=", fig4X, s.ContigCDF)
	fmt.Printf("servers with zero 2MB contiguity: %.0f%% (paper: 23%%)\n", s.NoContigFraction(mem.Order2M)*100)
	fmt.Printf("servers with zero 1GB contiguity: %.0f%% (paper: ~100%%)\n", s.NoContigFraction(mem.Order1G)*100)

	fmt.Println("\n== Figure 5: CDF of servers vs unmovable blocks (fraction of memory) ==")
	cdfTable("unmovable <=", fig5X, s.UnmovCDF)
	fmt.Printf("median unmovable 2MB blocks: %.0f%% of memory (paper: 34%%)\n",
		s.MedianUnmovBlockFrac(mem.Order2M)*100)
	fmt.Printf("median unmovable 4KB frames: %.1f%% of memory (paper: 7.6%%)\n",
		s.MedianUnmovFrameFrac()*100)

	fmt.Println("\n== Figure 6: sources of unmovable allocations ==")
	src := s.SourceBreakdown()
	for _, c := range []mem.Source{mem.SrcNetworking, mem.SrcSlab, mem.SrcFilesystem, mem.SrcPageTable, mem.SrcOther} {
		fmt.Printf("  %-12s %5.1f%%\n", c, src[c]*100)
	}
	fmt.Println("paper: networking 73%, slab 12%, filesystems, page tables, others ~4%")

	fmt.Printf("\n== §2.4: uptime vs free 2MB blocks: Pearson r = %+.4f (paper: 0.00286) ==\n",
		s.UptimeCorrelation())

	fmt.Println("\n== §2.4: a young server's first 'hour' (fresh boot, Cache A) ==")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "ticks\tfree 2MB contiguity\tunmovable 2MB blocks")
	tsCfg := cfg
	tsCfg.Seed = cfg.Seed + 99
	for _, pt := range contiguitas.YoungServerSeries(tsCfg, contiguitas.CacheA(), 6, 20) {
		fmt.Fprintf(w, "%d\t%.2f\t%.2f\n", pt.Tick, pt.FreeContig2M, pt.UnmovBlock2M)
	}
	w.Flush()
	fmt.Println("paper: servers can get highly fragmented within the first hour of running workloads")
}

// cdfTable prints one Fig. 4/5 table: the CDF at each probe x (rows)
// for each block order (columns).
func cdfTable(label string, xs []float64, cdf func(order int) *stats.CDF) {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "%s\t2MB\t4MB\t32MB\t1GB\t\n", label)
	for _, x := range xs {
		fmt.Fprintf(w, "%.0f%%\t", x*100)
		for _, o := range figOrders {
			fmt.Fprintf(w, "%.2f\t", cdf(o).At(x))
		}
		fmt.Fprintln(w)
	}
	w.Flush()
}

// traceRepresentative runs one server of the study's design and memory
// size for the study's maximum uptime under the Web profile with full
// telemetry attached, on the shared resumable traced loop
// (snapshot.Traced), and exports its Chrome trace and per-tick metrics.
// The fleet study itself stays uninstrumented — its servers are too
// many and too short-lived for a per-server timeline to mean anything.
func traceRepresentative(cfg contiguitas.FleetConfig, ticks uint64, traceOut, metricsOut string, ckptEvery uint64, ckptOut, resume string) error {
	mc := core.DefaultMachineConfig(cfg.Design)
	mc.MemBytes, mc.Seed = cfg.MemBytes, cfg.Seed
	run := snapshot.Traced{
		Config: mc.KernelConfig(), Profile: workload.Web(), Seed: cfg.Seed, Ticks: ticks,
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
			fmt.Printf("resumed representative server from %s: seq=%d tick=%d state=%016x\n",
				resume, e.Seq, e.Tick, e.StateHash)
		}
		in = obsvHandle.Instrument(k, 1<<15, int(ticks)+1, tick)
	}
	run.Tick = func(_ *kernel.Kernel, tick uint64) { in.Pub.Pump(tick) }
	_, last, err := run.Run()
	if err != nil {
		return err
	}
	in.Pub.Publish(ticks)
	if err := in.Export(traceOut, metricsOut, ""); err != nil {
		return fmt.Errorf("telemetry export: %w", err)
	}
	fmt.Printf("instrumented representative server: %s (%d events, %d overwritten), %s (%d rows)\n",
		traceOut, in.Ring.Len(), in.Ring.Overwritten(), metricsOut, in.Sampler.Len())
	if last != nil {
		fmt.Printf("last snapshot: %s seq=%d tick=%d state=%016x chain=%016x\n",
			ckptOut, last.Seq, last.Tick, last.StateHash, last.ChainHash)
	}
	return nil
}

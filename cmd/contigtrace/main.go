// Command contigtrace records allocation traces from the workload
// generators and replays them against either memory-management design.
// A trace captured once replays bit-identically, which makes cross-
// design comparisons exact: the same allocation stream, two layouts.
//
//	contigtrace -record trace.bin -profile web -ticks 200  # capture
//	contigtrace -replay trace.bin -design linux            # replay
//	contigtrace -replay trace.bin -design contiguitas
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"contiguitas"
	"contiguitas/internal/cli"
	"contiguitas/internal/kernel"
	"contiguitas/internal/mem"
	"contiguitas/internal/obsv"
	"contiguitas/internal/trace"
	"contiguitas/internal/workload"
)

// obsvHandle is the -serve plane (nil when the flag is off).
var obsvHandle *obsv.Handle

func main() {
	record := flag.String("record", "", "record a trace to this file")
	replay := flag.String("replay", "", "replay a trace from this file")
	profile := flag.String("profile", "web", "profile to record (web|cachea|cacheb|ci)")
	design := flag.String("design", "contiguitas", "design to replay against (linux|contiguitas)")
	memMB := flag.Uint64("mem", 512, "machine memory in MiB")
	ticks := flag.Uint64("ticks", 200, "ticks to record")
	seed := flag.Uint64("seed", 1, "seed")
	traceOut := flag.String("trace-out", "", "write a Chrome trace of the replayed kernel to this file (replay only)")
	metricsOut := flag.String("metrics-out", "", "write per-tick metrics JSONL of the replayed kernel to this file (replay only)")
	serve := flag.String("serve", "", "serve the live observability HTTP plane on this address (e.g. :8080 or :0; empty disables)")
	cli.Parse(flag.CommandLine, os.Args[1:])

	var err error
	obsvHandle, err = obsv.MountCLI(*serve)
	cli.Check(err)
	defer obsvHandle.Close()

	switch {
	case *record != "":
		if _, err := pickProfile(*profile); err != nil {
			cli.Usagef("contigtrace: %v", err)
		}
		if err := doRecord(*record, *profile, *memMB<<20, *ticks, *seed); err != nil {
			cli.Runtimef("contigtrace: %v", err)
		}
	case *replay != "":
		switch strings.ToLower(*design) {
		case "linux", "contiguitas":
		default:
			cli.Usagef("contigtrace: unknown design %q", *design)
		}
		if err := doReplay(*replay, *design, *memMB<<20, *traceOut, *metricsOut); err != nil {
			cli.Runtimef("contigtrace: %v", err)
		}
	default:
		flag.Usage()
		os.Exit(cli.CodeUsage)
	}
}

func pickProfile(name string) (contiguitas.Profile, error) {
	switch strings.ToLower(name) {
	case "web":
		return contiguitas.Web(), nil
	case "cachea":
		return contiguitas.CacheA(), nil
	case "cacheb":
		return contiguitas.CacheB(), nil
	case "ci":
		return contiguitas.CI(), nil
	}
	return contiguitas.Profile{}, fmt.Errorf("unknown profile %q", name)
}

func newKernel(design string, memBytes uint64) (*kernel.Kernel, error) {
	var d contiguitas.Design
	switch strings.ToLower(design) {
	case "linux":
		d = contiguitas.DesignLinux
	case "contiguitas":
		d = contiguitas.DesignContiguitas
	default:
		return nil, fmt.Errorf("unknown design %q", design)
	}
	mc := contiguitas.DefaultMachineConfig(d)
	mc.MemBytes = memBytes
	return contiguitas.NewMachine(mc).K, nil
}

// doRecord attaches a trace recorder to a kernel's event sink and runs
// the real workload generator against it, so the captured trace is the
// authentic allocation stream of the profile.
func doRecord(path, profileName string, memBytes, ticks, seed uint64) error {
	p, err := pickProfile(profileName)
	if err != nil {
		return err
	}
	k, err := newKernel("contiguitas", memBytes)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w, err := trace.NewWriter(f)
	if err != nil {
		return err
	}
	rec := trace.Attach(k, w)
	r := workload.NewRunner(k, p, seed)
	r.Run(ticks)
	if rec.Err() != nil {
		return rec.Err()
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("recorded %d events over %d ticks of %s to %s\n",
		w.Events(), ticks, p.Name, path)
	return nil
}

func doReplay(path, design string, memBytes uint64, traceOut, metricsOut string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return err
	}
	k, err := newKernel(design, memBytes)
	if err != nil {
		return err
	}
	// Instrument the replayed kernel on request: the same recorded
	// allocation stream then yields a per-design timeline and metric
	// series, making cross-design comparisons visual. -serve forces the
	// instrumentation on so the plane has something to stream.
	var in *obsv.Instrumented
	if traceOut != "" || metricsOut != "" || obsvHandle != nil {
		in = obsvHandle.Instrument(k, 1<<15, 1<<12, 0)
	}
	st, err := trace.Replay(k, r)
	if err != nil {
		return err
	}
	if in != nil {
		in.Pub.Publish(st.Ticks)
		// Both artifacts are attempted even if one fails; an empty path
		// skips that artifact.
		if err := in.Export(traceOut, metricsOut, ""); err != nil {
			return err
		}
	}
	if traceOut != "" {
		fmt.Printf("trace: %s (%d events, %d overwritten)\n", traceOut, in.Ring.Len(), in.Ring.Overwritten())
	}
	if metricsOut != "" {
		fmt.Printf("metrics: %s (%d rows)\n", metricsOut, in.Sampler.Len())
	}
	scan := k.PM().Scan(mem.ScanOrders)
	fmt.Printf("replayed %d events (%d ticks, %d failed allocations) on %s\n",
		st.Events, st.Ticks, st.AllocFailed, design)
	fmt.Printf("unmovable 2MB blocks: %.1f%% of memory\n",
		scan.UnmovableBlockFraction(mem.Order2M)*100)
	fmt.Printf("free 2MB contiguity:  %.1f%% of free memory\n",
		scan.FreeContigFraction(mem.Order2M)*100)
	fmt.Printf("potential 32MB:       %.1f%% of memory\n",
		scan.PotentialFraction(mem.Order32M)*100)
	return nil
}

// Command migbench runs the hardware-level microbenchmarks: the
// Figure 13 page-migration study (page-unavailable cycles as victim
// TLBs scale, Linux software migration versus Contiguitas-HW) and the
// §5.3 request-serving experiments where unmovable networking buffers
// are live-migrated under NGINX-like and memcached-like load.
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"contiguitas"
	"contiguitas/internal/cli"
	"contiguitas/internal/hw"
	"contiguitas/internal/hw/contighw"
	"contiguitas/internal/hw/cpu"
	"contiguitas/internal/hw/platform"
	"contiguitas/internal/obsv"
	"contiguitas/internal/telemetry"
	"contiguitas/internal/trans"
)

// obsvHandle is the -serve plane (nil when the flag is off); the
// migration trace tees its cycle-level ring into /events.
var obsvHandle *obsv.Handle

func main() {
	bench := flag.String("bench", "all", "benchmark (fig13|serve|duration|walks|all)")
	victims := flag.Int("victims", 8, "maximum victim TLBs for fig13")
	cycles := flag.Uint64("cycles", 8_000_000, "serving window in cycles")
	traceOut := flag.String("trace-out", "", "write a cycle-level Chrome trace of one SW and one HW migration to this file")
	serveAddr := flag.String("serve", "", "serve the live observability HTTP plane on this address (e.g. :8080 or :0; empty disables)")
	cli.Parse(flag.CommandLine, os.Args[1:])

	var err error
	obsvHandle, err = obsv.MountCLI(*serveAddr)
	cli.Check(err)
	defer obsvHandle.Close()

	if *traceOut != "" {
		if err := traceMigrations(*traceOut, *victims); err != nil {
			cli.Runtimef("migbench: %v", err)
		}
	}

	switch *bench {
	case "fig13":
		fig13(*victims)
	case "serve":
		serve(*cycles)
	case "duration":
		duration()
	case "walks":
		walks()
	case "all":
		fig13(*victims)
		duration()
		walks()
		serve(*cycles)
	default:
		cli.Usagef("migbench: unknown benchmark %q", *bench)
	}
}

// traceMigrations runs one software migration (TLB shootdown across the
// victim cores) and one Contiguitas-HW migration (shootdown-free) on an
// instrumented machine and writes the cycle-stamped Chrome trace, so the
// two mechanisms can be compared side by side in Perfetto.
func traceMigrations(path string, victims int) error {
	md := contighw.Cacheable
	m := platform.NewMachine(hw.DefaultParams(), &md)
	tp := m.AttachTracer(1 << 12)
	obsvHandle.Attach(nil, tp)

	m.MapPage(10, 100)
	for i := 0; i < 64; i++ {
		m.Access(i%m.P.Cores, 10<<12+uint64(i)*64, true, uint64(i), 0)
	}
	if victims >= m.P.Cores {
		victims = m.P.Cores - 1
	}
	vs := make([]int, 0, victims)
	for c := 1; c <= victims; c++ {
		vs = append(vs, c)
	}
	m.SoftwareMigrate(0, 10, 100, 200, vs)
	if _, err := m.HWMigrateObserved(10, 200, 300, platform.HWMigrateOptions{}, nil); err != nil {
		return err
	}
	if err := telemetry.ExportAll(telemetry.ChromeTraceArtifact(path, tp, nil)); err != nil {
		return err
	}
	fmt.Printf("cycle-level migration trace (%d events): %s\n\n", tp.Len(), path)
	return nil
}

func fig13(maxVictims int) {
	fmt.Println("== Figure 13: page-unavailable cycles during one 4KB migration ==")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "victim cores\tlinux-real\tlinux-sim\tdeviation\tcontiguitas")
	for _, p := range platform.Fig13Series(maxVictims) {
		fmt.Fprintf(w, "%d\t%d\t%d\t%+.1f%%\t%d\n",
			p.Victims, p.LinuxReal, p.LinuxSim,
			(float64(p.LinuxSim)/float64(p.LinuxReal)-1)*100, p.Contiguitas)
	}
	w.Flush()
}

func duration() {
	fmt.Println("\n== Contiguitas-HW 4KB migration duration (page stays available) ==")
	for _, mode := range []contighw.Mode{contighw.Noncacheable, contighw.Cacheable} {
		md := mode
		m := platform.NewMachine(hw.DefaultParams(), &md)
		m.MapPage(10, 100)
		for i := 0; i < 64; i++ {
			m.Access(i%m.P.Cores, 10<<12+uint64(i)*64, true, uint64(i), 0)
		}
		var copyDone uint64
		// Observe the copy completion directly on the metadata entry.
		probeStart := m.Eng.Now()
		rep, err := m.HWMigrateObserved(10, 100, 200, platform.HWMigrateOptions{}, func() {
			copyDone = m.Eng.Now() - probeStart
		})
		if err != nil {
			cli.Runtimef("migbench: %v", err)
		}
		copyUs := float64(copyDone) / (m.P.ClockGHz * 1000)
		totalUs := float64(rep.TotalCycles) / (m.P.ClockGHz * 1000)
		fmt.Printf("  %-13s copy %.1f us; end-to-end %.1f us (incl. lazy invalidation window); unavailable: %d cycles (one local INVLPG)\n",
			mode, copyUs, totalUs, rep.UnavailableCycles)
	}
	fmt.Println("paper: ~2us copy; access to the page is never blocked")
}

func walks() {
	fmt.Println("\n== Translation-overhead validation (simulated TLBs+caches vs analytic model) ==")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "footprint\twalk cycles 4KB\twalk cycles 2MB\tsim residual\tmodel residual")
	tlbModel := trans.DefaultTLB()
	for _, pages := range []int{8192, 32768, 131072} {
		cfg := cpu.DefaultConfig()
		cfg.FootprintPages = pages
		cfg.Accesses = 150_000
		f4, f2 := cpu.CompareHugePages(cfg)
		model := tlbModel.Residual(trans.Page2M, uint64(pages)*4096)
		simRes := 0.0
		if f4 > 0 {
			simRes = f2 / f4
		}
		fmt.Fprintf(w, "%d MB\t%.1f%%\t%.1f%%\t%.2f\t%.2f\n",
			pages*4/1024, f4*100, f2*100, simRes, model)
	}
	w.Flush()
	fmt.Println("(2MB residual factors from the event simulation and the Figure 3 analytic model)")
}

func serve(cycles uint64) {
	fmt.Println("\n== §5.3: migration-rate impact at peak request throughput ==")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "app\tmode\trate/s\trequests\tloss")
	for _, r := range contiguitas.Sec53(cycles) {
		fmt.Fprintf(w, "%s\t%s\t%.0f\t%d\t%.2f%%\n", r.App, r.Mode, r.Rate, r.Requests, r.LossPct)
	}
	w.Flush()
	fmt.Println("paper: Regular (100/s) no impact; Very High (1000/s) <=0.3% noncacheable, none cacheable")
	fmt.Printf("memcached with 2MB pages: +%.1f%% (paper ~7%%)\n",
		(contiguitas.MemcachedHugePageGain()-1)*100)
}

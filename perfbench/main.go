// Command perfbench is the repository benchmark. It drives the public
// surfaces of the reproduction from outside — an in-process contigd
// (scheduler, durable store and HTTP plane on loopback), supervised
// fleet campaigns over a warm result cache, and the paper-figure
// drivers — checks every output, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload cold-campaign --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced run. NOTES.md
// explains the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// buildDir is where every artifact of a run lives, relative to the
// directory the benchmark runs from.
const buildDir = ".bench_build"

// defaultSeed is the seed the pinned digests and counts were taken at.
const defaultSeed = 1

var workloads = map[string]func(*bench) error{
	"cold-campaign": coldCampaign,
	"paper-figures": paperFigures,
	"warm-sweep":    warmSweep,
}

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: cold-campaign | paper-figures | warm-sweep")
	seed := fs.Uint64("seed", defaultSeed, "input seed")
	seconds := fs.Int("seconds", 20, "measured seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	fn, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traceFlag)
		return 2
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	work, err := os.MkdirTemp(buildDir, "run-*")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)

	b := newBench(*name, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1, work)
	meta := hostMeta(work)
	meta["workload"], meta["seed"], meta["seconds"], meta["trace"] = *name, *seed, *seconds, *traceFlag
	line, _ := json.Marshal(meta)
	fmt.Fprintf(os.Stderr, "perfbench: run %s\n", line)

	if err := fn(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	return b.finish()
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// bench is one run's state: inputs, measurements and output checks.
type bench struct {
	name    string
	seed    uint64
	seconds time.Duration
	traced  bool
	work    string
	tr      *tracer // nil unless traced
	root    string  // name of the span trace.coverage is taken over

	// End-to-end samples (untraced runs).
	setups    []float64
	latencies []float64
	// report holds workload-specific figures printed to stderr.
	report []reportLine

	layer map[string]float64

	attempted, failed int
	problems          []string

	pins   map[string]string // output identities observed this run
	counts map[string]uint64 // deterministic counts observed this run
}

type reportLine struct {
	name  string
	value float64
	unit  string
	n     int
}

func newBench(name string, seed uint64, seconds time.Duration, traced bool, work string) *bench {
	b := &bench{
		name: name, seed: seed, seconds: seconds, traced: traced, work: work, root: "campaign",
		layer: map[string]float64{}, pins: map[string]string{}, counts: map[string]uint64{},
	}
	if traced {
		b.tr = newTracer()
	}
	return b
}

// problem records a failed output check; the run then reports
// correct=false and exits non-zero.
func (b *bench) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(b.problems) < 20 {
		fmt.Fprintf(os.Stderr, "perfbench: CHECK FAILED: %s\n", msg)
	}
	b.problems = append(b.problems, msg)
}

// checkOp counts one operation as attempted, runs its output checks,
// and counts it as failed if any of them records a problem. It reports
// whether every check passed.
func (b *bench) checkOp(checks func()) bool {
	b.attempted++
	before := len(b.problems)
	checks()
	if len(b.problems) > before {
		b.failed++
		return false
	}
	return true
}

// pin records an output identity and checks it against the value
// recorded at the default seed, when there is one.
func (b *bench) pin(key, value string) {
	if prev, ok := b.pins[key]; ok && prev != value {
		b.problem("%s: got %s, earlier in this run %s", key, value, prev)
	}
	b.pins[key] = value
	if want, ok := pinned[b.name][key]; ok && want != value {
		b.problem("%s: got %s, pinned %s", key, value, want)
	}
}

// note adds a workload-specific figure to the stderr report.
func (b *bench) note(name string, value float64, unit string, n int) {
	b.report = append(b.report, reportLine{name, value, unit, n})
}

// timeSetup runs setup n times and records each duration; the caller
// keeps the state of the last one.
func (b *bench) timeSetup(n int, setup func(i int) error) error {
	if b.traced {
		n = 1
	}
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := setup(i); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		b.setups = append(b.setups, time.Since(start).Seconds())
	}
	return nil
}

// measure runs the workload's measured loop. Untraced, it runs once
// for the full duration. Traced, the first half runs with the hooks
// installed but off and the second half with them on, so the ratio of
// the two median latencies is the tracing overhead.
func (b *bench) measure(loop func(until time.Time) []float64) {
	if !b.traced {
		b.latencies = loop(time.Now().Add(b.seconds))
		return
	}
	half := b.seconds / 2
	off := loop(time.Now().Add(half))
	rt0 := readRuntime()
	b.tr.enable() // stays on for the spans taken after the window
	on := loop(time.Now().Add(half))
	rt1 := readRuntime()
	b.layer["trace.overhead"] = ratio(median(on), median(off))
	b.layer["go.alloc_mb"] = float64(rt1.alloc-rt0.alloc) / (1 << 20)
	b.layer["go.gc_cycles"] = float64(rt1.gcCycles - rt0.gcCycles)
	b.layer["go.gc_cpu_frac"] = ratio(rt1.gcCPU-rt0.gcCPU, rt1.busyCPU-rt0.busyCPU)
	b.latencies = on
}

// final reports whether the loop now running is the one whose figures
// are reported: the only one untraced, the traced half when traced.
func (b *bench) final() bool { return !b.traced || b.tr.active() }

type runtimeStats struct {
	alloc, gcCycles uint64
	gcCPU, busyCPU  float64
}

func readRuntime() runtimeStats {
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(samples)
	return runtimeStats{
		alloc:    samples[0].Value.Uint64(),
		gcCycles: samples[1].Value.Uint64(),
		gcCPU:    samples[2].Value.Float64(),
		busyCPU:  samples[3].Value.Float64() - samples[4].Value.Float64(),
	}
}

func (b *bench) finish() int {
	if b.traced {
		b.tr.layerMetrics(b)
		b.compareCounts()
	}
	if b.attempted < 1 || len(b.latencies) == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation completed in the measured window")
	}
	res := b.result()
	b.printReport(res)
	b.writeArtifacts()
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// result assembles the result line. A run is correct only when no
// check failed and the measured window completed at least one timed
// operation; failed counts the operations whose checks failed.
func (b *bench) result() result {
	res := result{
		Correct:   len(b.problems) == 0 && b.attempted > 0 && len(b.latencies) > 0,
		Attempted: max(b.attempted, 1),
		Failed:    b.failed,
		Metrics:   map[string]metricValue{},
	}
	if b.traced {
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{b.layer[m.name], m.unit}
		}
	} else {
		res.Metrics["setup_s"] = metricValue{median(b.setups), "s"}
		res.Metrics["latency_p50_s"] = metricValue{median(b.latencies), "s"}
		res.Metrics["peak_rss_mb"] = metricValue{peakRSSMB(), "MB"}
	}
	return res
}

func (b *bench) printReport(res result) {
	w := os.Stderr
	fmt.Fprintf(w, "perfbench: %s seed=%d attempted=%d failed=%d failed_frac=%.4f correct=%v\n",
		b.name, b.seed, res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted), res.Correct)
	if !b.traced {
		fmt.Fprintf(w, "  %-22s %14.6g %-6s n=%d\n", "setup_s", median(b.setups), "s", len(b.setups))
		fmt.Fprintf(w, "  %-22s %14.6g %-6s n=%d\n", "latency_p50_s", median(b.latencies), "s", len(b.latencies))
		// Too few samples beyond it on most workloads to gate on; shown
		// with its count.
		fmt.Fprintf(w, "  %-22s %14.6g %-6s n=%d\n", "latency_p90_s", quantile(b.latencies, 0.9), "s", len(b.latencies))
		fmt.Fprintf(w, "  %-22s %14.6g %-6s n=1\n", "peak_rss_mb", peakRSSMB(), "MB")
	}
	for _, r := range b.report {
		fmt.Fprintf(w, "  %-22s %14.6g %-6s n=%d\n", r.name, r.value, r.unit, r.n)
	}
	if b.traced {
		names := make([]string, 0, len(b.layer))
		for k := range b.layer {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(w, "  %-28s %14.6g\n", k, b.layer[k])
		}
	}
}

// writeArtifacts writes the observed output identities and counts (the
// source of pinned.json and counts.json) and, when traced, the spans.
func (b *bench) writeArtifacts() {
	dir := filepath.Join(buildDir, "observed")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return
	}
	mode := "e2e"
	if b.traced {
		mode = "trace"
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s", b.name, b.seed, mode))
	obs, _ := json.MarshalIndent(map[string]any{"pins": b.pins, "counts": b.counts}, "", "  ")
	if err := os.WriteFile(base+".json", obs, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	if b.traced {
		if err := b.tr.writeSpans(base + ".spans.jsonl"); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		}
	}
}

// compareCounts reports, at the default seed, whether the deterministic
// counts match the ones recorded in counts.json. A mismatch is printed,
// not failed: a change may move a count on purpose, and then it records
// the new value.
func (b *bench) compareCounts() {
	want := recordedCounts[b.name]
	if b.seed != defaultSeed || len(want) == 0 {
		return
	}
	diff := 0
	for k, v := range want {
		if got, ok := b.counts[k]; ok && got != v {
			diff++
			fmt.Fprintf(os.Stderr, "perfbench: count %s = %d, recorded %d\n", k, got, v)
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: counts: %d recorded, %d differ\n", len(want), diff)
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

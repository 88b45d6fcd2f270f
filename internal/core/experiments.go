package core

import (
	hwp "contiguitas/internal/hw"
	"contiguitas/internal/hw/contighw"
	"contiguitas/internal/hw/platform"
	"contiguitas/internal/mem"
	"contiguitas/internal/trans"
	"contiguitas/internal/workload"
)

// ExpConfig scales the experiments: tests run small machines, the CLI
// defaults to the simulation-scale 8 GB documented in EXPERIMENTS.md.
type ExpConfig struct {
	MemBytes    uint64
	WarmupTicks uint64
	Seed        uint64
	// Max1GPages bounds the dynamic 1 GB reservation attempt (the paper
	// allocated 4 GB worth on 64 GB servers).
	Max1GPages int
}

// DefaultExpConfig is the simulation scale used by cmd/contigsim.
func DefaultExpConfig() ExpConfig {
	return ExpConfig{
		MemBytes:    8 << 30,
		WarmupTicks: 400,
		Seed:        42,
		Max1GPages:  2,
	}
}

// Fig2Row is one hardware generation of Figure 2.
type Fig2Row struct {
	Name        string
	RelCapacity float64
	Coverage4K  float64
	Coverage2M  float64
	Coverage1G  float64
}

// Fig2 reproduces the memory-capacity versus TLB-coverage trend.
func Fig2() []Fig2Row {
	base := trans.Generations[0]
	var rows []Fig2Row
	for _, g := range trans.Generations {
		rows = append(rows, Fig2Row{
			Name:        g.Name,
			RelCapacity: g.RelativeCapacity(base),
			Coverage4K:  g.TLBCoverage(trans.Page4K),
			Coverage2M:  g.TLBCoverage(trans.Page2M),
			Coverage1G:  g.TLBCoverage(trans.Page1G),
		})
	}
	return rows
}

// Fig3Row is one bar group of Figure 3.
type Fig3Row struct {
	Service  string
	PageSize trans.PageSize
	DataPct  float64
	InstrPct float64
}

// Fig3 reproduces the page-walk-cycle characterisation: each service at
// 4 KB and 2 MB, and Web additionally with its 1 GB HugeTLB heap.
func Fig3() []Fig3Row {
	tlb := trans.DefaultTLB()
	var rows []Fig3Row
	add := func(p workload.Profile, ps trans.PageSize, cov trans.Coverage) {
		d, i := tlb.WalkPct(p.Trans, cov)
		rows = append(rows, Fig3Row{Service: p.Name, PageSize: ps, DataPct: d, InstrPct: i})
	}
	services := []workload.Profile{workload.Web(), workload.CacheA(), workload.CacheB(), workload.Ads()}
	for _, p := range services {
		add(p, trans.Page4K, trans.Coverage{})
		add(p, trans.Page2M, trans.Coverage{Frac2M: 1})
		if p.Name == "Web" {
			f1g := float64(uint64(4)<<30) / float64(p.Trans.DataFootprint)
			add(p, trans.Page1G, trans.Coverage{Frac2M: 1 - f1g, Frac1G: f1g})
		}
	}
	return rows
}

// FragSetup names the Figure 10 fragmentation scenarios.
type FragSetup uint8

const (
	FragFull FragSetup = iota
	FragPartial
	FragNone
)

// String names the setup.
func (f FragSetup) String() string {
	switch f {
	case FragFull:
		return "full"
	case FragPartial:
		return "partial"
	}
	return "none"
}

// Fig10Row is one service's end-to-end comparison.
type Fig10Row struct {
	Service string

	WalkLinuxFull    float64 // total page-walk % under each scenario
	WalkLinuxPartial float64
	WalkContiguitas  float64
	WalkContig2MOnly float64 // Contiguitas without the 1 GB reservation

	THPLinuxFull    float64
	THPLinuxPartial float64
	THPContiguitas  float64
	Huge1GPages     int

	// Relative performance of Contiguitas over each Linux scenario, and
	// the share of the win attributable to 1 GB pages (Web only).
	GainOverFull    float64
	GainOverPartial float64
	Gain1G          float64
}

// scenarioKey identifies a deterministic scenario run for caching.
type scenarioKey struct {
	cfg    ExpConfig
	design Design
	setup  FragSetup
	prof   string
	try1G  int
}

// steadyCache memoises scenario runs: Figures 11 and 12 share the same
// steady states, and experiments are deterministic by construction.
var steadyCache = map[scenarioKey]*SteadyState{}

// runScenarioCached returns the memoised steady state for a scenario.
func runScenarioCached(cfg ExpConfig, design Design, setup FragSetup, p workload.Profile, try1G int) *SteadyState {
	key := scenarioKey{cfg: cfg, design: design, setup: setup, prof: p.Name, try1G: try1G}
	if ss, ok := steadyCache[key]; ok {
		return ss
	}
	ss, _, _ := runScenario(cfg, design, setup, p, try1G)
	steadyCache[key] = ss
	return ss
}

// runScenario boots a machine, applies the fragmentation setup, runs
// the workload to steady state, and returns the scan plus runner.
func runScenario(cfg ExpConfig, design Design, setup FragSetup, p workload.Profile, try1G int) (*SteadyState, *workload.Runner, *Machine) {
	mc := DefaultMachineConfig(design)
	mc.MemBytes = cfg.MemBytes
	mc.Seed = cfg.Seed
	m := NewMachine(mc)
	switch setup {
	case FragFull:
		workload.DefaultFragmenter(cfg.Seed).Run(m.K)
	case FragPartial:
		workload.PartialFragmenter(m.K, p, cfg.WarmupTicks/2, cfg.Seed+7)
	}
	ss, r := m.RunToSteadyState(p, cfg.WarmupTicks, cfg.Seed+13, try1G)
	return ss, r, m
}

// Fig10 reproduces the end-to-end comparison for Web, Cache A and
// Cache B: Linux on fully and partially fragmented servers versus
// Contiguitas, with Web additionally reserving dynamic 1 GB pages.
func Fig10(cfg ExpConfig) []Fig10Row {
	tlb := trans.DefaultTLB()
	var rows []Fig10Row
	for _, p := range []workload.Profile{workload.Web(), workload.CacheA(), workload.CacheB()} {
		try1G := 0
		if p.Name == "Web" {
			try1G = cfg.Max1GPages
		}
		ssFull := runScenarioCached(cfg, DesignLinux, FragFull, p, try1G)
		ssPart := runScenarioCached(cfg, DesignLinux, FragPartial, p, try1G)
		ssCont := runScenarioCached(cfg, DesignContiguitas, FragNone, p, try1G)

		userBytes := uint64(float64(cfg.MemBytes) * p.UserFrac)
		wFull, _ := ssFull.EndToEnd(tlb, p.Trans, userBytes)
		wPart, _ := ssPart.EndToEnd(tlb, p.Trans, userBytes)
		wCont, _ := ssCont.EndToEnd(tlb, p.Trans, userBytes)

		// Contiguitas without 1 GB pages: same THP coverage, no 1 GB.
		no1g := *ssCont
		no1g.Huge1GPages = 0
		w2m, _ := no1g.EndToEnd(tlb, p.Trans, userBytes)

		rows = append(rows, Fig10Row{
			Service:          p.Name,
			WalkLinuxFull:    wFull,
			WalkLinuxPartial: wPart,
			WalkContiguitas:  wCont,
			WalkContig2MOnly: w2m,
			THPLinuxFull:     ssFull.THPCoverage,
			THPLinuxPartial:  ssPart.THPCoverage,
			THPContiguitas:   ssCont.THPCoverage,
			Huge1GPages:      ssCont.Huge1GPages,
			GainOverFull:     trans.RelativePerf(wFull, wCont),
			GainOverPartial:  trans.RelativePerf(wPart, wCont),
			Gain1G:           trans.RelativePerf(w2m, wCont),
		})
	}
	return rows
}

// Fig11Row is one service's unmovable-block comparison.
type Fig11Row struct {
	Service          string
	LinuxPct         float64
	ContiguitasPct   float64
	InternalFragFree float64 // §5.2, from the Contiguitas run
}

// Fig11 reproduces the unmovable 2 MB block percentages (Linux 19-42 %,
// average 31 %; Contiguitas ≤9 %, average 7 % in the paper).
func Fig11(cfg ExpConfig) []Fig11Row {
	var rows []Fig11Row
	for _, p := range workload.Profiles() {
		ssL := runScenarioCached(cfg, DesignLinux, FragNone, p, 0)
		ssC := runScenarioCached(cfg, DesignContiguitas, FragNone, p, 0)
		rows = append(rows, Fig11Row{
			Service:          p.Name,
			LinuxPct:         ssL.UnmovableBlockFrac[mem.Order2M] * 100,
			ContiguitasPct:   ssC.UnmovableBlockFrac[mem.Order2M] * 100,
			InternalFragFree: ssC.InternalFragFree,
		})
	}
	return rows
}

// Fig12Row is one service's potential-contiguity comparison.
type Fig12Row struct {
	Service string
	Order   int
	Linux   float64 // % of memory compactable into blocks of Order
	Contig  float64
}

// Fig12 reproduces potential memory contiguity under perfect software
// compaction at 2 MB, 32 MB and 1 GB.
func Fig12(cfg ExpConfig) []Fig12Row {
	var rows []Fig12Row
	for _, p := range workload.Profiles() {
		ssL := runScenarioCached(cfg, DesignLinux, FragNone, p, 0)
		ssC := runScenarioCached(cfg, DesignContiguitas, FragNone, p, 0)
		for _, o := range []int{mem.Order2M, mem.Order32M, mem.Order1G} {
			rows = append(rows, Fig12Row{
				Service: p.Name,
				Order:   o,
				Linux:   ssL.PotentialFrac[o] * 100,
				Contig:  ssC.PotentialFrac[o] * 100,
			})
		}
	}
	return rows
}

// Fig13 returns the page-unavailability series (delegating to the
// hardware platform).
func Fig13() []platform.Fig13Point { return platform.Fig13Series(8) }

// Sec53Row is one migration-rate measurement of §5.3.
type Sec53Row struct {
	App      string
	Mode     contighw.Mode
	Rate     float64 // migrations per second
	Requests uint64
	LossPct  float64 // throughput loss versus the zero-rate baseline
}

// Sec53 reproduces the migration-rate impact experiment on the
// NGINX-like and memcached-like request servers.
func Sec53(duration uint64) []Sec53Row {
	apps := []struct {
		name string
		cfg  platform.ServeConfig
	}{
		{"nginx", nginxServe(duration)},
		{"memcached", memcachedServe(duration)},
	}
	var rows []Sec53Row
	for _, app := range apps {
		for _, mode := range []contighw.Mode{contighw.Noncacheable, contighw.Cacheable} {
			var base float64
			for _, rate := range []float64{0, 100, 1000} {
				md := mode
				m := platform.NewMachine(hwp.DefaultParams(), &md)
				c := app.cfg
				c.MigrationsPerSec = rate
				res := platform.ServeBenchmark(m, c)
				if rate == 0 {
					base = res.RequestsPerMCycle
				}
				loss := 0.0
				if base > 0 {
					loss = (1 - res.RequestsPerMCycle/base) * 100
				}
				rows = append(rows, Sec53Row{
					App: app.name, Mode: mode, Rate: rate,
					Requests: res.Requests, LossPct: loss,
				})
			}
		}
	}
	return rows
}

// nginxServe configures the NGINX-like server: large static working
// set, heavier per-request buffer traffic, insensitive to huge pages.
func nginxServe(duration uint64) platform.ServeConfig {
	c := platform.DefaultServeConfig()
	c.AppPages = 8192
	c.AccessesPerRequest = 30
	c.BufAccessesPerRequest = 10
	c.WriteFrac = 0.2
	c.DurationCycles = duration
	return c
}

// memcachedServe configures the memcached-like server (the paper's
// Cache B proxy).
func memcachedServe(duration uint64) platform.ServeConfig {
	c := platform.DefaultServeConfig()
	c.DurationCycles = duration
	return c
}

// MemcachedHugePageGain reproduces the §5.3 claim that memcached
// improves by ~7 % with 2 MB pages: the memcached translation profile at
// full 2 MB coverage versus 4 KB.
func MemcachedHugePageGain() float64 {
	tlb := trans.DefaultTLB()
	w := trans.Workload{
		Name:             "memcached",
		DataFootprint:    4 << 30,
		InstrFootprint:   64 << 20,
		BaseWalkPctData:  7.0,
		BaseWalkPctInstr: 0.8,
		HotTheta:         0.7,
	}
	d4, i4 := tlb.WalkPct(w, trans.Coverage{})
	d2, i2 := tlb.WalkPct(w, trans.Coverage{Frac2M: 1})
	return trans.RelativePerf(d4+i4, d2+i2)
}

// SizingReport is the §5.3 metadata-table sizing analysis.
type SizingReport struct {
	// InvalidationWindowUs: with 40K-100K kernel entries per second per
	// core, a local invalidation opportunity arrives within ~25 µs.
	InvalidationWindowUs float64
	// CopyUs is the conservative 4 KB copy estimate used for sizing.
	CopyUs float64
	// MigrationsPerSecPerEntry is the sustainable rate of one entry.
	MigrationsPerSecPerEntry float64
	Entries                  int
	Area                     contighw.AreaModel
}

// Sizing reproduces the metadata-table sizing argument.
func Sizing() SizingReport {
	window := 25.0
	copyUs := 5.0
	return SizingReport{
		InvalidationWindowUs:     window,
		CopyUs:                   copyUs,
		MigrationsPerSecPerEntry: 1e6 / (window + copyUs),
		Entries:                  16,
		Area:                     contighw.DefaultAreaModel(),
	}
}

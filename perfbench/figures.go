package main

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"contiguitas/internal/core"
	"contiguitas/internal/hw/platform"
	"contiguitas/internal/workload"
)

// sec53Cycles is the simulated duration of each §5.3 serve run, the
// value cmd/contigsim uses.
const sec53Cycles = 4_000_000

// sec53Runs is the number of serve runs core.Sec53 makes: two apps ×
// two migration modes × three migration rates.
const sec53Runs = 12

// paperFigures: an in-process loop over the Figure 10–12 drivers at
// 1 GiB with a 150-tick warmup, Figure 13 and §5.3. Every iteration
// uses a fresh seed, because core memoises steady states per
// configuration and a contigsim user starts with that memo empty.
func paperFigures(b *bench) error {
	b.root = "figures.iter"
	seeds := seedStream(b.seed, 3)
	err := b.timeSetup(3, func(i int) error {
		// A small pass through every driver: code paths, allocator and
		// heap warmed before the measured iterations. Its seed does not
		// depend on the run seed, so set-up does the same work every run.
		cfg := core.ExpConfig{MemBytes: 256 << 20, WarmupTicks: 30, Seed: uint64(i + 1), Max1GPages: 2}
		core.Fig10(cfg)
		core.Fig11(cfg)
		platform.Fig13Series(8)
		core.Sec53(sec53Cycles / 10)
		return nil
	})
	if err != nil {
		return err
	}

	var fig13Ns, sec53Ns []float64
	var simKCycles float64
	iter := 0
	b.measure(func(until time.Time) []float64 {
		var lat []float64
		for time.Now().Before(until) {
			iter++
			cfg := core.ExpConfig{MemBytes: 1 << 30, WarmupTicks: 150, Seed: nextSeed(seeds), Max1GPages: 2}
			label := fmt.Sprintf("iter-%d", iter)
			var root, rootStart int64
			if b.tr.active() {
				root, rootStart = b.tr.reserve(), b.tr.now()
			}
			start := time.Now()
			var f10 []core.Fig10Row
			var f11 []core.Fig11Row
			var f12 []core.Fig12Row
			var f13 []platform.Fig13Point
			var s53 []core.Sec53Row
			b.timed(label, "core.fig10", root, func() { f10 = core.Fig10(cfg) })
			b.timed(label, "core.fig11", root, func() { f11 = core.Fig11(cfg) })
			b.timed(label, "core.fig12", root, func() { f12 = core.Fig12(cfg) })
			d13 := b.timed(label, "hw.fig13", root, func() { f13 = platform.Fig13Series(8) })
			d53 := b.timed(label, "hw.sec53", root, func() { s53 = core.Sec53(sec53Cycles) })
			lat = append(lat, time.Since(start).Seconds())
			if root != 0 {
				b.tr.addID(root, label, "figures.iter", 0, rootStart, b.tr.now())
			}
			b.checkOp(func() { b.checkFigures(cfg.Seed, f10, f11, f12, f13, s53) })
			if b.final() {
				fig13Ns = append(fig13Ns, float64(d13))
				sec53Ns = append(sec53Ns, float64(d53))
				simKCycles = float64(sec53Runs*sec53Cycles) / 1e3
				for _, p := range f13 {
					simKCycles += float64(p.LinuxSim) / 1e3
				}
			}
		}
		if b.final() {
			b.note("figures_s", median(lat), "s", len(lat))
		}
		return lat
	})
	if b.traced {
		b.layer["hw.sim_kcycles"] = simKCycles
		b.layer["hw.ns_per_kcycle"] = ratio(mean(fig13Ns)+mean(sec53Ns), simKCycles)
		b.counts["hw.sim_kcycles"] = uint64(simKCycles)

		// One Figure 10 scenario on its own: Contiguitas, Web, 1 GiB. Its
		// seed comes from a stream of its own, so the counts taken below
		// do not depend on how many iterations the window ran.
		seed := nextSeed(seedStream(b.seed, 5))
		mc := core.DefaultMachineConfig(core.DesignContiguitas)
		mc.MemBytes, mc.Seed = 1<<30, seed
		m := core.NewMachine(mc)
		b.timed("scenario", "core.scenario", 0, func() { m.RunToSteadyState(workload.Web(), 150, seed+13, 2) })
		b.representativeServers(1024, 150, seed)
	}
	return nil
}

// timed runs fn and, when tracing, records it as a span.
func (b *bench) timed(trace, name string, parent int64, fn func()) time.Duration {
	if !b.tr.active() {
		start := time.Now()
		fn()
		return time.Since(start)
	}
	start := b.tr.now()
	fn()
	end := b.tr.now()
	b.tr.add(trace, name, parent, start, end)
	return time.Duration(end - start)
}

// checkFigures checks the shape of every figure and pins its headline
// values. Figures 10–12 depend on the seed; Figure 13 and §5.3 do not,
// so their values are pinned for every seed.
func (b *bench) checkFigures(seed uint64, f10 []core.Fig10Row, f11 []core.Fig11Row, f12 []core.Fig12Row,
	f13 []platform.Fig13Point, s53 []core.Sec53Row) {
	if len(f10) != 3 || len(f11) != 4 || len(f12) != 12 || len(f13) != 8 || len(s53) != sec53Runs {
		b.problem("figure row counts %d/%d/%d/%d/%d, want 3/4/12/8/%d",
			len(f10), len(f11), len(f12), len(f13), len(s53), sec53Runs)
		return
	}
	val := func(key string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			b.problem("%s is %v", key, v)
		}
		b.pin(key, strconv.FormatFloat(v, 'g', -1, 64))
	}
	for _, r := range f10 {
		k := fmt.Sprintf("fig10 seed=%d %s ", seed, r.Service)
		val(k+"gain_over_full", r.GainOverFull)
		val(k+"gain_over_partial", r.GainOverPartial)
		val(k+"thp_contiguitas", r.THPContiguitas)
		val(k+"huge_1g_pages", float64(r.Huge1GPages))
		if r.THPContiguitas < r.THPLinuxFull {
			b.problem("fig10 seed=%d %s: Contiguitas THP coverage %.3f below Linux fully fragmented %.3f",
				seed, r.Service, r.THPContiguitas, r.THPLinuxFull)
		}
	}
	for _, r := range f11 {
		k := fmt.Sprintf("fig11 seed=%d %s ", seed, r.Service)
		val(k+"linux_pct", r.LinuxPct)
		val(k+"contiguitas_pct", r.ContiguitasPct)
		if r.ContiguitasPct > r.LinuxPct {
			b.problem("fig11 seed=%d %s: Contiguitas unmovable blocks %.2f%% above Linux %.2f%%",
				seed, r.Service, r.ContiguitasPct, r.LinuxPct)
		}
	}
	for _, r := range f12 {
		k := fmt.Sprintf("fig12 seed=%d %s order=%d ", seed, r.Service, r.Order)
		val(k+"linux", r.Linux)
		val(k+"contig", r.Contig)
	}
	for _, p := range f13 {
		k := fmt.Sprintf("fig13 victims=%d ", p.Victims)
		val(k+"linux_sim", float64(p.LinuxSim))
		val(k+"contiguitas", float64(p.Contiguitas))
	}
	for _, r := range s53 {
		val(fmt.Sprintf("sec53 %s %v rate=%g loss_pct", r.App, r.Mode, r.Rate), r.LossPct)
	}
}

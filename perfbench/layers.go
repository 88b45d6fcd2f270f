package main

import (
	"bytes"
	"fmt"
	"time"

	"contiguitas/internal/core"
	"contiguitas/internal/kernel"
	"contiguitas/internal/mem"
	"contiguitas/internal/trace"
	"contiguitas/internal/workload"
)

// countingSink counts the kernel's public operations on their way to
// the trace recorder.
type countingSink struct {
	kernel.EventSink
	ops, ticks uint64
}

func (s *countingSink) OnAlloc(p *kernel.Page, pc bool) { s.ops++; s.EventSink.OnAlloc(p, pc) }
func (s *countingSink) OnFree(p *kernel.Page)           { s.ops++; s.EventSink.OnFree(p) }
func (s *countingSink) OnPin(p *kernel.Page)            { s.ops++; s.EventSink.OnPin(p) }
func (s *countingSink) OnUnpin(p *kernel.Page)          { s.ops++; s.EventSink.OnUnpin(p) }
func (s *countingSink) OnTick()                         { s.ticks++; s.EventSink.OnTick() }

// representativeServers runs one server per workload profile and design
// at the workload's size. A kernel EventSink records the allocation
// stream while the workload runner steps it; the stream is then
// replayed on a fresh kernel of the same configuration, so the replay
// time is kernel time alone and the rest of each tick is the workload
// generator's (including slab). The scan at the end is the mem layer.
func (b *bench) representativeServers(memMiB, ticks, seed uint64) {
	var tickNs, replayNs, scanNs time.Duration
	var events, ops, totalTicks, compact, migrations, reclaimed uint64
	servers := 0
	for _, design := range []core.Design{core.DesignLinux, core.DesignContiguitas} {
		for _, p := range workload.Profiles() {
			mc := core.DefaultMachineConfig(design)
			mc.MemBytes = memMiB << 20
			mc.Seed = seed
			m := core.NewMachine(mc)
			var buf bytes.Buffer
			w, err := trace.NewWriter(&buf)
			if err != nil {
				b.problem("trace writer: %v", err)
				return
			}
			sink := &countingSink{EventSink: trace.Attach(m.K, w)}
			m.K.SetEventSink(sink)
			r := m.Attach(p, seed+1)
			start := time.Now()
			for t := uint64(0); t < ticks; t++ {
				r.Step()
			}
			tickNs += time.Since(start)
			var st mem.ContiguityStats
			start = time.Now()
			m.K.PM().ScanInto(&st, mem.ScanOrders)
			scanNs += time.Since(start)
			m.K.SetEventSink(nil)
			if err := w.Flush(); err != nil {
				b.problem("trace flush: %v", err)
				return
			}

			fresh := core.NewMachine(mc)
			rd, err := trace.NewReader(&buf)
			if err != nil {
				b.problem("trace reader: %v", err)
				return
			}
			start = time.Now()
			rs, err := trace.Replay(fresh.K, rd)
			replayNs += time.Since(start)
			if err != nil {
				b.problem("replay %s/%s: %v", p.Name, design, err)
				return
			}
			if rs.Ticks != ticks || rs.Events != sink.ops+sink.ticks {
				b.problem("replay %s/%s: %d events over %d ticks, recorded %d over %d",
					p.Name, design, rs.Events, rs.Ticks, sink.ops+sink.ticks, ticks)
			}

			reg := m.K.Metrics()
			c := func(name string) uint64 { return reg.Counter(name).Value() }
			key := fmt.Sprintf("kernel.%s/%s.", p.Name, design)
			b.counts[key+"ops"] = sink.ops
			b.counts[key+"compact_runs"] = c("compact_runs")
			b.counts[key+"migrations"] = c("sw_migrations") + c("hw_migrations")
			b.counts[key+"reclaimed_pages"] = c("reclaimed_pages")
			events += rs.Events
			ops += sink.ops
			totalTicks += ticks
			compact += c("compact_runs")
			migrations += c("sw_migrations") + c("hw_migrations")
			reclaimed += c("reclaimed_pages")
			servers++
		}
	}
	L := b.layer
	L["kernel.op_ns"] = ratio(float64(replayNs), float64(events))
	L["kernel.ops_per_tick"] = ratio(float64(ops), float64(totalTicks))
	L["kernel.compact_runs"] = float64(compact)
	L["kernel.migrations"] = float64(migrations)
	L["kernel.reclaimed_pages"] = float64(reclaimed)
	L["workload.tick_us"] = ratio(float64(tickNs), float64(totalTicks)) / 1e3
	L["workload.gen_self_us"] = ratio(float64(tickNs-replayNs), float64(totalTicks)) / 1e3
	L["mem.scan_ms"] = ratio(float64(scanNs), float64(servers)) / 1e6
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"contiguitas/internal/resultcache"
	"contiguitas/internal/service"
	"contiguitas/internal/supervise"
	"contiguitas/internal/vfs"
)

// perLayer lists the per-layer metrics a traced run reports, in output
// order. A workload that bypasses a layer reports 0 for it; NOTES.md
// names the layer each metric measures and the end-to-end metric it
// should move.
var perLayer = []struct{ name, unit string }{
	{"mem.scan_ms", "ms"},
	{"kernel.op_ns", "ns"},
	{"kernel.ops_per_tick", "count"},
	{"kernel.compact_runs", "count"},
	{"kernel.migrations", "count"},
	{"kernel.reclaimed_pages", "count"},
	{"workload.tick_us", "us"},
	{"workload.gen_self_us", "us"},
	{"go.alloc_mb", "MB"},
	{"go.alloc_mb_per_server", "MB"},
	{"go.gc_cycles", "count"},
	{"go.gc_cpu_frac", "frac"},
	{"fleet.cell_s", "s"},
	{"fleet.server_ms", "ms"},
	{"supervise.attempts", "count"},
	{"supervise.crashes", "count"},
	{"vfs.durable_writes", "count"},
	{"vfs.writes_per_campaign", "count"},
	{"vfs.bytes_written", "B"},
	{"vfs.create_ms", "ms"},
	{"vfs.fsync_ms", "ms"},
	{"vfs.rename_ms", "ms"},
	{"vfs.syncdir_ms", "ms"},
	{"vfs.read_ms", "ms"},
	{"vfs.reads", "count"},
	{"store.put_ms", "ms"},
	{"store.puts", "count"},
	{"store.put_cell_ms", "ms"},
	{"store.put_cells", "count"},
	{"store.put_result_ms", "ms"},
	{"store.put_results", "count"},
	{"store.get_ms", "ms"},
	{"store.gets", "count"},
	{"store.list_ms", "ms"},
	{"store.lists", "count"},
	{"store.self_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.cell_s", "s"},
	{"service.cell_self_s", "s"},
	{"service.retried", "count"},
	{"service.store_retried", "count"},
	{"http.submit_ms", "ms"},
	{"http.status_ms", "ms"},
	{"http.result_ms", "ms"},
	{"http.self_ms", "ms"},
	{"obsv.scrape_ms", "ms"},
	{"resultcache.get_us", "us"},
	{"resultcache.hits", "count"},
	{"resultcache.misses", "count"},
	{"resultcache.rejects", "count"},
	{"resultcache.bytes_read", "B"},
	{"core.fig10_s", "s"},
	{"core.fig11_s", "s"},
	{"core.fig12_s", "s"},
	{"core.scenario_s", "s"},
	{"hw.fig13_ms", "ms"},
	{"hw.sec53_ms", "ms"},
	{"hw.sim_kcycles", "count"},
	{"hw.ns_per_kcycle", "ns"},
	{"trace.coverage", "frac"},
	{"trace.overhead", "ratio"},
	{"trace.spans", "count"},
}

// span is one timed interval at a layer boundary. Spans of one request
// share Trace (the campaign ID, or a cell or iteration label); Parent is
// set explicitly by the caller or, for hooks that cannot see their
// caller, derived at write-out by interval containment.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. Hooks record only
// while it is on, so an installed but idle hook costs one atomic load.
type tracer struct {
	t0     time.Time
	on     atomic.Bool
	nextID atomic.Int64
	cur    atomic.Pointer[string] // trace label for spans with no campaign

	mu      sync.Mutex
	spans   []span
	dropped int

	bytesWritten atomic.Int64
	bytesRead    atomic.Int64
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.setTrace("")
	return t
}

func (t *tracer) enable() { t.on.Store(true) }

func (t *tracer) active() bool { return t != nil && t.on.Load() }

func (t *tracer) setTrace(label string) {
	if t != nil {
		t.cur.Store(&label)
	}
}

// now is the tracer clock: nanoseconds since the run started.
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// add records a finished span and returns its ID.
func (t *tracer) add(trace, name string, parent, start, end int64) int64 {
	id := t.reserve()
	t.addID(id, trace, name, parent, start, end)
	return id
}

// reserve returns a fresh span ID for a span that is recorded, with
// addID, only once it ends but whose children need its ID earlier.
func (t *tracer) reserve() int64 { return t.nextID.Add(1) }

// maxSpans bounds the spans one run keeps; later spans are counted and
// dropped, so the per-layer figures of a long traced window come from
// its first maxSpans spans.
const maxSpans = 100_000

func (t *tracer) addID(id int64, trace, name string, parent, start, end int64) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: start, End: end})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// at converts a wall-clock instant to the tracer clock.
func (t *tracer) at(w time.Time) int64 { return int64(w.Sub(t.t0)) }

// traceOf maps a state-directory path to the campaign it belongs to,
// falling back to the current trace label.
func (t *tracer) traceOf(path string) string {
	parts := strings.Split(filepath.ToSlash(path), "/")
	for i := 0; i+1 < len(parts); i++ {
		if parts[i] == "campaigns" {
			return parts[i+1]
		}
	}
	return *t.cur.Load()
}

// timedFS is the timing vfs.FS installed with vfs.SetDefault: every
// durable-write step and every read becomes a span.
type timedFS struct {
	vfs.FS
	tr *tracer
}

func (f timedFS) CreateTemp(dir, pattern string) (vfs.File, error) {
	if !f.tr.active() {
		return f.FS.CreateTemp(dir, pattern)
	}
	s := f.tr.now()
	file, err := f.FS.CreateTemp(dir, pattern)
	trace := f.tr.traceOf(dir)
	f.tr.add(trace, "vfs.create", 0, s, f.tr.now())
	if err != nil {
		return nil, err
	}
	return &timedFile{File: file, tr: f.tr, trace: trace}, nil
}

func (f timedFS) Rename(oldpath, newpath string) error {
	if !f.tr.active() {
		return f.FS.Rename(oldpath, newpath)
	}
	s := f.tr.now()
	err := f.FS.Rename(oldpath, newpath)
	f.tr.add(f.tr.traceOf(newpath), "vfs.rename", 0, s, f.tr.now())
	return err
}

func (f timedFS) SyncDir(dir string) error {
	if !f.tr.active() {
		return f.FS.SyncDir(dir)
	}
	s := f.tr.now()
	err := f.FS.SyncDir(dir)
	f.tr.add(f.tr.traceOf(dir), "vfs.syncdir", 0, s, f.tr.now())
	return err
}

func (f timedFS) ReadFile(path string) ([]byte, error) {
	if !f.tr.active() {
		return f.FS.ReadFile(path)
	}
	s := f.tr.now()
	data, err := f.FS.ReadFile(path)
	f.tr.add(f.tr.traceOf(path), "vfs.read", 0, s, f.tr.now())
	f.tr.bytesRead.Add(int64(len(data)))
	return data, err
}

type timedFile struct {
	vfs.File
	tr    *tracer
	trace string
}

func (f *timedFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.tr.bytesWritten.Add(int64(n))
	return n, err
}

func (f *timedFile) Sync() error {
	s := f.tr.now()
	err := f.File.Sync()
	f.tr.add(f.trace, "vfs.fsync", 0, s, f.tr.now())
	return err
}

// timedStore is the timing service.Store wrapped around the disk store.
// It also infers the service-side cell span (from the scheduler's last
// journal step for a campaign to the cell's PutCell) and the queue wait
// (from the queued record to the running one), which no store call
// spans on its own.
type timedStore struct {
	service.Store
	tr *tracer

	mu       sync.Mutex
	lastEnd  map[string]int64 // end of the scheduler's last journal step, per campaign
	queuedAt map[string]int64
	waits    []float64 // queue waits, ms
}

func newTimedStore(s service.Store, tr *tracer) *timedStore {
	return &timedStore{Store: s, tr: tr, lastEnd: map[string]int64{}, queuedAt: map[string]int64{}}
}

// step times one store call; journal marks calls on the scheduler's
// write path, which delimit the cell spans.
func (s *timedStore) step(id, name string, journal bool, call func() error) error {
	if !s.tr.active() {
		return call()
	}
	start := s.tr.now()
	err := call()
	end := s.tr.now()
	s.tr.add(id, name, 0, start, end)
	if journal {
		s.mu.Lock()
		s.lastEnd[id] = end
		s.mu.Unlock()
	}
	return err
}

func (s *timedStore) Put(c *service.Campaign) error {
	err := s.step(c.ID, "store.put", true, func() error { return s.Store.Put(c) })
	if s.tr.active() && err == nil {
		s.mu.Lock()
		switch {
		case c.State == service.StateQueued:
			s.queuedAt[c.ID] = s.lastEnd[c.ID]
		case c.State == service.StateRunning && c.Attempts == 1:
			if q, ok := s.queuedAt[c.ID]; ok {
				s.waits = append(s.waits, float64(s.lastEnd[c.ID]-q)/1e6)
				delete(s.queuedAt, c.ID)
			}
		}
		s.mu.Unlock()
	}
	return err
}

func (s *timedStore) Get(id string) (c *service.Campaign, err error) {
	s.step(id, "store.get", false, func() error { c, err = s.Store.Get(id); return err })
	return c, err
}

func (s *timedStore) List() (cs []*service.Campaign, err error) {
	s.step(*s.tr.cur.Load(), "store.list", false, func() error { cs, err = s.Store.List(); return err })
	return cs, err
}

func (s *timedStore) PutCell(id string, cell int, data []byte) error {
	if s.tr.active() {
		s.mu.Lock()
		from, ok := s.lastEnd[id]
		s.mu.Unlock()
		if ok {
			s.tr.add(id, "service.cell", 0, from, s.tr.now())
		}
	}
	return s.step(id, "store.put_cell", true, func() error { return s.Store.PutCell(id, cell, data) })
}

func (s *timedStore) GetCell(id string, cell int) (data []byte, ok bool, err error) {
	s.step(id, "store.get_cell", true, func() error { data, ok, err = s.Store.GetCell(id, cell); return err })
	return data, ok, err
}

func (s *timedStore) PutResult(id string, data []byte) error {
	return s.step(id, "store.put_result", true, func() error { return s.Store.PutResult(id, data) })
}

func (s *timedStore) GetResult(id string) (data []byte, err error) {
	s.step(id, "store.get_result", false, func() error { data, err = s.Store.GetResult(id); return err })
	return data, err
}

// timedCache is the timing resultcache.Cache for the warm sweep.
type timedCache struct {
	resultcache.Cache
	tr *tracer
}

func (c timedCache) Get(key uint64) ([]byte, error) {
	if !c.tr.active() {
		return c.Cache.Get(key)
	}
	s := c.tr.now()
	data, err := c.Cache.Get(key)
	c.tr.add(*c.tr.cur.Load(), "resultcache.get", 0, s, c.tr.now())
	return data, err
}

// progressSpans is the fleet.ProgressSink on a direct cell run: it
// counts attempts and turns the gaps between a shard's unit reports
// into per-server spans.
type progressSpans struct {
	tr     *tracer
	trace  string
	parent int64

	mu       sync.Mutex
	attempts int
	crashes  int
	last     map[int]int64 // per shard: time of the previous unit report
}

func newProgressSpans(tr *tracer, trace string, parent int64) *progressSpans {
	return &progressSpans{tr: tr, trace: trace, parent: parent, last: map[int]int64{}}
}

func (p *progressSpans) ObserveCampaign(int)          {}
func (p *progressSpans) ObserveEnd(*supervise.Report) {}
func (p *progressSpans) ObserveCache(_, _, _ uint64)  {}
func (p *progressSpans) ObserveEvent(supervise.Event) {}

func (p *progressSpans) ObserveAttempt(shard, attempt int) {
	now := p.tr.now()
	p.mu.Lock()
	p.attempts++
	p.last[shard] = now
	p.mu.Unlock()
}

// onEvent is the campaign's OnEvent hook.
func (p *progressSpans) onEvent(ev supervise.Event) {
	if ev.Kind == supervise.EventCrash {
		p.mu.Lock()
		p.crashes++
		p.mu.Unlock()
	}
}

func (p *progressSpans) ObserveUnits(shard int, done, total uint64) {
	now := p.tr.now()
	p.mu.Lock()
	from, ok := p.last[shard]
	p.last[shard] = now
	p.mu.Unlock()
	if ok {
		p.tr.add(p.trace, "fleet.server", p.parent, from, now)
	}
}

// parentRule names, per span-name prefix, the prefixes its parent may
// carry. Hooks below the service run on worker goroutines, so a parent
// is the smallest containing span of an allowed kind in the same trace,
// never merely any span that happens to overlap.
var parentRule = map[string][]string{
	"vfs.":         {"store.", "service.cell", "resultcache."},
	"store.":       {"http.", "campaign"},
	"service.cell": {"campaign"},
	"resultcache.": {"fleet.cell"},
}

func allowedParents(name string) []string {
	for prefix, parents := range parentRule {
		if strings.HasPrefix(name, prefix) {
			return parents
		}
	}
	return nil
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// resolve assigns missing parents by containment and computes every
// span's self time (its duration minus the union of its children).
func (t *tracer) resolve() {
	byTrace := map[string][]int{}
	for i := range t.spans {
		byTrace[t.spans[i].Trace] = append(byTrace[t.spans[i].Trace], i)
	}
	for _, idx := range byTrace {
		for _, i := range idx {
			s := &t.spans[i]
			if s.Parent != 0 {
				continue
			}
			rule := allowedParents(s.Name)
			if rule == nil {
				continue
			}
			best, bestDur := int64(0), int64(-1)
			for _, j := range idx {
				p := &t.spans[j]
				if j == i || !hasAnyPrefix(p.Name, rule) || p.Start > s.Start || p.End < s.End {
					continue
				}
				if d := p.End - p.Start; bestDur < 0 || d < bestDur {
					best, bestDur = p.ID, d
				}
			}
			s.Parent = best
		}
	}
	children := map[int64][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.Self = (s.End - s.Start) - unionWithin(children[s.ID], s.Start, s.End)
	}
}

// unionWithin returns the total length of the union of intervals,
// clipped to [lo, hi].
func unionWithin(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sorted := append([][2]int64(nil), iv...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a][0] < sorted[b][0] })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, x := range sorted {
		s, e := max(x[0], lo), min(x[1], hi)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// layerMetrics folds the spans into the per-layer metrics.
func (t *tracer) layerMetrics(b *bench) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.resolve()

	type agg struct {
		n         int
		dur, self int64
	}
	by := map[string]*agg{}
	for _, s := range t.spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		a.n++
		a.dur += s.End - s.Start
		a.self += s.Self
	}
	meanDur := func(name string, unit float64) float64 {
		if a := by[name]; a != nil && a.n > 0 {
			return float64(a.dur) / float64(a.n) / unit
		}
		return 0
	}
	count := func(name string) float64 {
		if a := by[name]; a != nil {
			return float64(a.n)
		}
		return 0
	}
	meanSelf := func(prefix string, unit float64) float64 {
		var n int
		var self int64
		for name, a := range by {
			if strings.HasPrefix(name, prefix) {
				n += a.n
				self += a.self
			}
		}
		if n == 0 {
			return 0
		}
		return float64(self) / float64(n) / unit
	}
	const ms, us, sec = 1e6, 1e3, 1e9
	L := b.layer
	for _, m := range []struct {
		metric, span string
		unit         float64
	}{
		{"http.submit_ms", "http.submit", ms},
		{"http.status_ms", "http.status", ms},
		{"http.result_ms", "http.result", ms},
		{"obsv.scrape_ms", "obsv.scrape", ms},
		{"store.put_ms", "store.put", ms},
		{"store.put_cell_ms", "store.put_cell", ms},
		{"store.put_result_ms", "store.put_result", ms},
		{"store.get_ms", "store.get", ms},
		{"store.list_ms", "store.list", ms},
		{"vfs.create_ms", "vfs.create", ms},
		{"vfs.fsync_ms", "vfs.fsync", ms},
		{"vfs.rename_ms", "vfs.rename", ms},
		{"vfs.syncdir_ms", "vfs.syncdir", ms},
		{"vfs.read_ms", "vfs.read", ms},
		{"resultcache.get_us", "resultcache.get", us},
		{"service.cell_s", "service.cell", sec},
		{"fleet.cell_s", "fleet.cell", sec},
		{"fleet.server_ms", "fleet.server", ms},
		{"core.fig10_s", "core.fig10", sec},
		{"core.fig11_s", "core.fig11", sec},
		{"core.fig12_s", "core.fig12", sec},
		{"core.scenario_s", "core.scenario", sec},
		{"hw.fig13_ms", "hw.fig13", ms},
		{"hw.sec53_ms", "hw.sec53", ms},
	} {
		L[m.metric] = meanDur(m.span, m.unit)
	}
	L["store.puts"] = count("store.put")
	L["store.put_cells"] = count("store.put_cell")
	L["store.put_results"] = count("store.put_result")
	L["store.gets"] = count("store.get")
	L["store.lists"] = count("store.list")
	L["vfs.reads"] = count("vfs.read")
	L["vfs.durable_writes"] = count("vfs.rename")
	L["vfs.bytes_written"] = float64(t.bytesWritten.Load())
	L["store.self_ms"] = meanSelf("store.", ms)
	L["http.self_ms"] = meanSelf("http.", ms)
	L["service.cell_self_s"] = meanSelf("service.cell", sec)
	L["trace.spans"] = float64(len(t.spans))
	if t.dropped > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: kept the first %d spans, dropped %d\n", len(t.spans), t.dropped)
	}

	// Coverage: the share of the root spans' wall time (a campaign, a
	// warm cell, a figure iteration) that the layer spans of their
	// traces cover.
	members := map[string][][2]int64{}
	for _, s := range t.spans {
		if s.Name != b.root {
			members[s.Trace] = append(members[s.Trace], [2]int64{s.Start, s.End})
		}
	}
	var covered, wall int64
	for _, s := range t.spans {
		if s.Name == b.root {
			wall += s.End - s.Start
			covered += unionWithin(members[s.Trace], s.Start, s.End)
		}
	}
	L["trace.coverage"] = ratio(float64(covered), float64(wall))

	// Durable writes per campaign: a deterministic count of the spec.
	perCampaign := map[string]float64{}
	for _, s := range t.spans {
		if s.Name == "vfs.rename" {
			perCampaign[s.Trace]++
		}
	}
	var writes []float64
	for _, s := range t.spans {
		if s.Name == "campaign" {
			writes = append(writes, perCampaign[s.Trace])
		}
	}
	if len(writes) > 0 {
		L["vfs.writes_per_campaign"] = median(writes)
		b.counts["vfs.durable_writes_per_campaign"] = uint64(median(writes))
	}
}

// writeSpans writes every span as one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

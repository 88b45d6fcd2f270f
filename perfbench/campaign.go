package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"contiguitas/internal/fleet"
	"contiguitas/internal/mem"
	"contiguitas/internal/obsv"
	"contiguitas/internal/service"
	"contiguitas/internal/vfs"
)

// pollEvery is the status-poll cadence of every campaign client.
const pollEvery = 25 * time.Millisecond

// campaignTimeout bounds one campaign from its due time to its result.
const campaignTimeout = 90 * time.Second

// daemon is an in-process contigd wired like cmd/contigd with its
// defaults: durable disk store, scheduler with 2 workers and queue
// depth 8, API and observability plane on one loopback listener.
type daemon struct {
	sched *service.Scheduler
	srv   *obsv.Server
	store *timedStore // the timing store when traced, else nil
	url   string
}

func startDaemon(dir string, tr *tracer) (*daemon, error) {
	disk, err := service.OpenDisk(dir)
	if err != nil {
		return nil, err
	}
	d := &daemon{}
	var store service.Store = disk
	if tr != nil {
		d.store = newTimedStore(disk, tr)
		store = d.store
	}
	board, bus := obsv.NewBoard(), obsv.NewEventBus()
	d.sched = service.NewScheduler(service.SchedulerConfig{
		Store:      store,
		Workers:    2,
		QueueDepth: 8,
		Board:      board,
		Bus:        bus,
	})
	if _, err := d.sched.Recover(); err != nil {
		return nil, err
	}
	d.sched.Start()
	d.srv, err = obsv.Start(obsv.Options{
		Addr:   "127.0.0.1:0",
		Board:  board,
		Bus:    bus,
		Extend: d.sched.Mount,
		Health: d.sched.Health,
	})
	if err != nil {
		d.sched.Drain()
		return nil, err
	}
	d.url = d.srv.URL()
	return d, nil
}

func (d *daemon) stop() {
	d.sched.Drain()
	d.srv.Close()
}

// client is the benchmark's HTTP client, bounded to conns connections.
type client struct {
	base string
	hc   *http.Client
	tr   *tracer
}

func newClient(base string, conns int, tr *tracer) *client {
	t := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	return &client{base: base, hc: &http.Client{Transport: t, Timeout: 30 * time.Second}, tr: tr}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do issues one request and reads the whole body. When tracing, the
// request becomes span name in trace under parent, started at from (the
// time the request was due).
func (c *client) do(method, path string, body []byte, from time.Time, trace, name string, parent int64) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if c.tr.active() {
		c.tr.add(trace, name, parent, c.tr.at(from), c.tr.now())
	}
	return resp.StatusCode, data, err
}

// campaignRun is one campaign as the client saw it.
type campaignRun struct {
	key     string
	spec    service.Spec
	due     time.Time
	rec     *service.Campaign
	result  []byte
	latency time.Duration   // due time to result bytes received
	submit  time.Duration   // due time to submit acknowledged
	status  []time.Duration // each poll, from its due time
	ticks   uint64          // simulated server-ticks in the result
	cells   [][]byte        // per-cell canonical bytes
	err     error
}

// runCampaign submits one campaign at due, polls it at pollEvery until
// it is terminal, downloads the result and checks it.
func runCampaign(c *client, key string, spec service.Spec, due time.Time) campaignRun {
	r := campaignRun{key: key, spec: spec, due: due}
	id := service.CampaignID(key)
	var root int64
	if c.tr.active() {
		root = c.tr.reserve()
	}
	defer func() {
		if root != 0 && r.err == nil {
			c.tr.addID(root, id, "campaign", 0, c.tr.at(due), c.tr.at(due.Add(r.latency)))
		}
	}()

	sleepUntil(due)
	body, _ := json.Marshal(map[string]any{"key": key, "spec": spec})
	code, data, err := c.do("POST", "/api/campaigns", body, due, id, "http.submit", root)
	r.submit = time.Since(due)
	if err != nil {
		r.err = fmt.Errorf("submit: %w", err)
		return r
	}
	if code != http.StatusCreated {
		r.err = fmt.Errorf("submit: HTTP %d: %s", code, bytes.TrimSpace(data))
		return r
	}

	for k := 1; ; k++ {
		pollDue := due.Add(time.Duration(k) * pollEvery)
		if pollDue.Sub(due) > campaignTimeout {
			r.err = fmt.Errorf("campaign %s not done after %s", id, campaignTimeout)
			return r
		}
		sleepUntil(pollDue)
		code, data, err := c.do("GET", "/api/campaigns/"+id, nil, pollDue, id, "http.status", root)
		r.status = append(r.status, time.Since(pollDue))
		if err != nil || code != http.StatusOK {
			r.err = fmt.Errorf("status: HTTP %d: %v", code, err)
			return r
		}
		rec := &service.Campaign{}
		if err := json.Unmarshal(data, rec); err != nil {
			r.err = fmt.Errorf("status: %w", err)
			return r
		}
		if rec.State == service.StateFailed {
			r.err = fmt.Errorf("campaign %s failed: %s", id, rec.Error)
			return r
		}
		if rec.State == service.StateDone {
			r.rec = rec
			break
		}
	}
	from := time.Now()
	code, data, err = c.do("GET", "/api/campaigns/"+id+"/result", nil, from, id, "http.result", root)
	r.latency = time.Since(due)
	if err != nil || code != http.StatusOK {
		r.err = fmt.Errorf("result: HTTP %d: %v", code, err)
		return r
	}
	r.result = data
	r.err = r.check()
	return r
}

// check verifies the downloaded bytes against the record: the merged
// digest and length, each cell's digest, and each cell's decoded shape.
func (r *campaignRun) check() error {
	if got := fmt.Sprintf("%016x", fnvSum(r.result)); got != r.rec.ResultDigest || int64(len(r.result)) != r.rec.ResultBytes {
		return fmt.Errorf("result %s: digest %s/%d bytes, record says %s/%d",
			r.rec.ID, got, len(r.result), r.rec.ResultDigest, r.rec.ResultBytes)
	}
	cells, err := splitCells(r.result)
	if err != nil {
		return fmt.Errorf("result %s: %w", r.rec.ID, err)
	}
	if len(cells) != len(r.rec.CellDigests) || len(cells) != len(r.spec.Designs)*len(r.spec.MemsMiB) {
		return fmt.Errorf("result %s: %d cells, record has %d digests", r.rec.ID, len(cells), len(r.rec.CellDigests))
	}
	for i, cell := range cells {
		if got := fmt.Sprintf("%016x", fnvSum(cell)); got != r.rec.CellDigests[i] {
			return fmt.Errorf("result %s cell %d: digest %s, record says %s", r.rec.ID, i, got, r.rec.CellDigests[i])
		}
		ticks, err := decodeStudy(cell, r.spec)
		if err != nil {
			return fmt.Errorf("result %s cell %d: %w", r.rec.ID, i, err)
		}
		r.ticks += ticks
	}
	r.cells = cells
	return nil
}

// splitCells splits a merged result into its cells' canonical bytes.
// Each cell is a header line "cell ... bytes=N" followed by N bytes.
func splitCells(data []byte) ([][]byte, error) {
	var cells [][]byte
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 || !bytes.HasPrefix(data, []byte("cell ")) {
			return nil, errors.New("malformed cell header")
		}
		hdr := string(data[:nl])
		i := bytes.LastIndex([]byte(hdr), []byte(" bytes="))
		if i < 0 {
			return nil, fmt.Errorf("cell header %q has no length", hdr)
		}
		n, err := strconv.Atoi(hdr[i+len(" bytes="):])
		if err != nil || n < 0 || nl+1+n > len(data) {
			return nil, fmt.Errorf("cell header %q: bad length", hdr)
		}
		cells = append(cells, data[nl+1:nl+1+n])
		data = data[nl+1+n:]
	}
	return cells, nil
}

// decodeStudy walks a cell's canonical study bytes (fleet.CanonicalBytes)
// and returns the sum of server uptimes, checking the server count and
// that every uptime lies in the spec's tick range.
func decodeStudy(b []byte, spec service.Spec) (uint64, error) {
	u64 := func() (uint64, error) {
		if len(b) < 8 {
			return 0, io.ErrUnexpectedEOF
		}
		v := binary.LittleEndian.Uint64(b)
		b = b[8:]
		return v, nil
	}
	n, err := u64()
	if err != nil {
		return 0, err
	}
	if n != uint64(spec.Servers) {
		return 0, fmt.Errorf("%d servers, spec has %d", n, spec.Servers)
	}
	// Fields after the profile name and uptime: free pages, free 2M
	// blocks, unmovable frame fraction, two values per scan order, one
	// per unmovable source.
	rest := 3 + 2*len(mem.ScanOrders) + mem.NumSources
	var ticks uint64
	for s := uint64(0); s < n; s++ {
		z := bytes.IndexByte(b, 0)
		if z <= 0 {
			return 0, errors.New("missing profile name")
		}
		b = b[z+1:]
		up, err := u64()
		if err != nil {
			return 0, err
		}
		if up < spec.TicksMin || up > spec.TicksMax {
			return 0, fmt.Errorf("uptime %d outside [%d, %d]", up, spec.TicksMin, spec.TicksMax)
		}
		ticks += up
		for i := 0; i < rest; i++ {
			if _, err := u64(); err != nil {
				return 0, err
			}
		}
	}
	if len(b) != 0 {
		return 0, fmt.Errorf("%d trailing bytes", len(b))
	}
	return ticks, nil
}

// recordRun folds one finished campaign into the run: counts, output
// checks and pins. A campaign that failed on the wire (HTTP error,
// 429/503, failed state) or whose result failed a check is a failed
// operation and fails the run. It returns false in that case.
func (b *bench) recordRun(r campaignRun, firstDigest map[uint64]string) bool {
	return b.checkOp(func() {
		if r.err != nil {
			b.problem("campaign %s: %v", r.key, r.err)
			return
		}
		if prev, ok := firstDigest[r.spec.Seed]; ok && prev != r.rec.ResultDigest {
			b.problem("campaign seed=%d: digest %s, an earlier identical spec gave %s", r.spec.Seed, r.rec.ResultDigest, prev)
		}
		firstDigest[r.spec.Seed] = r.rec.ResultDigest
		b.pin(fmt.Sprintf("result seed=%d", r.spec.Seed), r.rec.ResultDigest)
	})
}

// verifyDirect re-runs campaign cells through fleet.RunSupervised with
// a progress sink and checks each direct run's canonical digest against
// the service's CellDigests. These runs give the fleet and supervise
// layer spans; they happen after the measured window.
func (b *bench) verifyDirect(runs []campaignRun, maxCells int) {
	attempts, crashes, cells := 0, 0, 0
	for _, r := range runs {
		for i, cell := range r.rec.Spec.Cells() {
			if cells >= maxCells {
				break
			}
			cells++
			label := fmt.Sprintf("%s/cell-%03d", r.rec.ID, i)
			root := b.tr.reserve()
			sink := newProgressSpans(b.tr, label, root)
			cfg := cellConfig(r.rec.Spec, cell.Design, cell.MemMiB, cell.Jitter)
			start := b.tr.now()
			res, err := fleet.RunSupervised(context.Background(), fleet.SupervisedConfig{
				Fleet: cfg, Progress: sink, OnEvent: sink.onEvent, CheckpointEvery: 1,
			})
			b.tr.addID(root, label, "fleet.cell", 0, start, b.tr.now())
			if err != nil || !res.Report.Complete {
				b.problem("direct run of %s: %v", label, err)
				continue
			}
			if got := fmt.Sprintf("%016x", fleet.CanonicalDigest(res.Study)); got != r.rec.CellDigests[i] {
				b.problem("direct run of %s: digest %s, service CellDigests has %s", label, got, r.rec.CellDigests[i])
			}
			attempts += sink.attempts
			crashes += sink.crashes
		}
	}
	if cells == 0 {
		return
	}
	b.layer["supervise.attempts"] = float64(attempts) / float64(cells)
	b.layer["supervise.crashes"] = float64(crashes)
	b.counts["supervise.attempts_per_cell"] = uint64(attempts / cells)
	b.counts["supervise.crashes"] = uint64(crashes)
}

// cellConfig is the fleet configuration the service runs for one cell
// of spec (service.Spec.fleetConfig, which is unexported).
func cellConfig(spec service.Spec, design string, memMiB uint64, jitter float64) fleet.Config {
	d, _ := service.ParseDesign(design)
	cfg := fleet.DefaultConfig()
	cfg.Servers = spec.Servers
	cfg.MemBytes = memMiB << 20
	cfg.Design = d
	cfg.TicksMin, cfg.TicksMax = spec.TicksMin, spec.TicksMax
	cfg.JitterFrac = jitter
	cfg.Seed = spec.Seed
	cfg.Shards = spec.Shards
	return cfg
}

// serviceStats reads the scheduler counters from /api/stats.
func (b *bench) serviceStats(c *client) {
	code, data, err := c.do("GET", "/api/stats", nil, time.Now(), "", "http.stats", 0)
	var st service.Stats
	if err != nil || code != http.StatusOK || json.Unmarshal(data, &st) != nil {
		b.problem("/api/stats: HTTP %d: %v", code, err)
		return
	}
	b.layer["service.retried"] = float64(st.Retried)
	b.layer["service.store_retried"] = float64(st.StoreRetried)
	fmt.Fprintf(os.Stderr, "perfbench: contigd stats: submitted=%d completed=%d rejected=%d failed=%d\n",
		st.Submitted, st.Completed, st.Rejected, st.Failed)
}

// startWarmDaemon starts a fresh daemon and drives one warm-up
// campaign through it, three times (see bench.timeSetup), and returns
// the last daemon. Warm-up specs do not depend on the run seed, so
// set-up does the same work on every run.
func (b *bench) startWarmDaemon(warm func(i int) service.Spec) (*daemon, error) {
	var d *daemon
	err := b.timeSetup(3, func(i int) error {
		if d != nil {
			d.stop()
			d = nil
		}
		nd, err := startDaemon(filepath.Join(b.work, fmt.Sprintf("state-%d", i)), b.tr)
		if err != nil {
			return err
		}
		d = nd
		c := newClient(nd.url, 1, nil)
		defer c.close()
		return runCampaign(c, fmt.Sprintf("warmup-%d", i), warm(i), time.Now()).err
	})
	if err != nil {
		if d != nil {
			d.stop()
		}
		return nil, err
	}
	return d, nil
}

// installFS puts the timing filesystem under every durable write when
// the run is traced; the returned function restores the previous one.
func (b *bench) installFS() func() {
	if !b.traced {
		return func() {}
	}
	return vfs.SetDefault(timedFS{FS: vfs.Active(), tr: b.tr})
}

// seedStream draws the run's campaign seeds from the benchmark seed.
func seedStream(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

func nextSeed(r *rand.Rand) uint64 { return r.Uint64N(1<<32) + 1 }

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

func fnvSum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

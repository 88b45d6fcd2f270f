// Supervised campaign layer: the fleet study partitioned into
// deterministic shards executed under internal/supervise, with per-shard
// CTGSHRD checkpoints, a CTGMANI campaign manifest, injected-fault
// points, and resume-from-disk for killed processes.
//
// Determinism: shard i owns servers [spans[i].lo, spans[i].lo+spans[i].n)
// and draws their plans from stats.ShardSeed(cfg.Seed, i), so each
// shard's samples are a pure function of (Config, shard index). Shards
// merge into disjoint slots of the campaign sample slice in canonical
// order, making the merged study byte-identical across worker counts,
// schedules, injected kills, retries, and checkpoint/resume cycles.
//
// Crash-consistency: a shard checkpoint file is renamed into place
// before the manifest records it, so a process kill between the two
// renames leaves the manifest exactly one chain link behind. Resume
// accepts that torn window iff the checkpoint's PrevChainHash equals the
// manifest's recorded chain (the chain self-authenticates continuity)
// and rolls the manifest forward; any other disagreement is rejected
// with the snapshot package's typed sentinels.
package fleet

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"math"
	"path/filepath"
	"sync"
	"time"

	"contiguitas/internal/fault"
	"contiguitas/internal/mem"
	"contiguitas/internal/resultcache"
	"contiguitas/internal/snapshot"
	"contiguitas/internal/stats"
	"contiguitas/internal/supervise"
	"contiguitas/internal/telemetry"
)

// Default shard partition knobs. Config.Shards overrides the whole
// default: any positive value wins, including values above
// DefaultMaxShards. Shard granularity is also result-cache key
// granularity (see ShardCacheKey) — finer shards mean more, smaller
// units of reuse across sweeps, so campaigns tuned for cache sharing
// should pin Config.Shards rather than rely on the fleet-size default.
const (
	// DefaultServersPerShard is the target shard width when Config.Shards
	// is unset.
	DefaultServersPerShard = 16
	// DefaultMaxShards caps the *default* partition so small studies do
	// not fragment into per-server shards; it is not a limit on
	// Config.Shards.
	DefaultMaxShards = 16
)

// DefaultShards picks the shard count for a fleet size: one shard per
// DefaultServersPerShard servers, clamped to [1, DefaultMaxShards].
// Purely a function of the server count so the default partition never
// depends on the machine running the study.
func DefaultShards(servers int) int {
	if servers <= 0 {
		return 1
	}
	s := (servers + DefaultServersPerShard - 1) / DefaultServersPerShard
	if s > DefaultMaxShards {
		s = DefaultMaxShards
	}
	return s
}

// FaultPlan arms the campaign's injected faults. Each shard gets its own
// injector (seeded from stats.ShardSeed over the study seed), so one
// shard's crossings never perturb another's fault schedule, and the
// schedule is reproducible bit-for-bit.
//
// Injectors live in memory for the whole process and are shared across a
// shard's attempts — hit counts accumulate monotonically, so an EveryN
// crash trigger does not re-fire at the same server on replay and the
// campaign makes forward progress (EveryN must be >= 2: a trigger firing
// on every crossing can never get past the server it keeps killing and
// ends in quarantine, which is the correct diagnosis).
type FaultPlan struct {
	// CrashEveryN arms fault.PointFleetShardCrash: every Nth server
	// boundary the shard attempt panics, losing work since its last
	// checkpoint.
	CrashEveryN uint64
	// CheckpointFailProb arms fault.PointFleetCheckpointWrite: the
	// checkpoint write fails with this probability and the attempt
	// crashes with an error.
	CheckpointFailProb float64
}

func (p FaultPlan) armed() bool {
	return p.CrashEveryN > 0 || p.CheckpointFailProb > 0
}

func (p FaultPlan) injector(studySeed uint64, shard int) *fault.Injector {
	if !p.armed() {
		return nil
	}
	in := fault.New(stats.ShardSeed(studySeed^0xfa1107, shard))
	if p.CrashEveryN > 0 {
		in.Arm(fault.PointFleetShardCrash, fault.Trigger{EveryN: p.CrashEveryN})
	}
	if p.CheckpointFailProb > 0 {
		in.Arm(fault.PointFleetCheckpointWrite, fault.Trigger{Prob: p.CheckpointFailProb})
	}
	return in
}

// SupervisedConfig parameterises a supervised campaign around the plain
// study Config.
type SupervisedConfig struct {
	Fleet Config
	// Workers / MaxAttempts / Backoff* / Heartbeat pass through to
	// supervise.Config (zero values pick that package's defaults;
	// Heartbeat 0 disables the watchdog).
	Workers     int
	MaxAttempts int
	BackoffBase time.Duration
	BackoffCap  time.Duration
	Heartbeat   time.Duration
	// Dir is the campaign state directory: one manifest plus one
	// checkpoint file per shard, all written atomically. Empty keeps
	// checkpoints in memory (retries still resume; process kills lose
	// everything).
	Dir string
	// Resume loads the manifest in Dir (required) and continues the
	// campaign: finished shards replay from their final checkpoint
	// without recomputing, unfinished shards resume mid-stream, and
	// quarantined shards get a fresh attempt budget (their manifest
	// attempt count keeps accumulating).
	Resume bool
	// CheckpointEvery is the per-shard checkpoint cadence in completed
	// servers (0 = every server). Checkpointing is active whenever Dir is
	// set, faults are armed, or this field is positive.
	CheckpointEvery int
	Faults          FaultPlan
	// OnEvent observes supervision events after the manifest is updated
	// (called from the supervisor goroutine, in order).
	OnEvent func(supervise.Event)
	Trace   *telemetry.Ring
	Metrics *telemetry.Registry
	// Cache is the content-addressed shard result store (nil disables).
	// At shard open a trusted entry replaces the whole simulation; at
	// shard completion the fresh samples populate the store. Rejected
	// entries (corrupt, torn, stale schema) are counted and recomputed —
	// the cache can only ever cost correctness nothing.
	Cache resultcache.Cache
	// Progress, when set, receives the campaign's live progress: the
	// supervise.Observer lifecycle stream plus fleet-level unit counts
	// and cache tallies (nil disables). The obsv campaign board
	// implements it.
	Progress ProgressSink
}

// ProgressSink extends supervise.Observer with the fleet-level progress
// only this layer can see: per-shard completed work units (servers) and
// the campaign's cumulative result-cache tallies.
//
// Threading: the embedded supervise.Observer methods keep that
// interface's contract (supervisor goroutine, ordered), but ObserveUnits
// and ObserveCache are called from worker goroutines as checkpoints land
// and cache lookups resolve — implementations synchronize internally and
// must not block.
type ProgressSink interface {
	supervise.Observer
	// ObserveUnits reports shard having completed done of total work
	// units. Monotonic per shard within one process, except that a
	// crashed attempt resuming from an older checkpoint may briefly
	// report fewer done units than its dead predecessor reached.
	ObserveUnits(shard int, done, total uint64)
	// ObserveCache reports the campaign's cumulative cache tallies after
	// a lookup resolved.
	ObserveCache(hits, misses, rejects uint64)
}

// CampaignResult is what a supervised campaign produces: always a study
// and a report, even when shards were lost.
type CampaignResult struct {
	// Study holds every server when Report.Complete; otherwise only the
	// finished shards' servers, concatenated in canonical shard order —
	// a statistically valid (if smaller) fleet sample, never silently
	// padded with zero rows.
	Study    *Study
	Report   *supervise.Report
	Manifest *snapshot.Manifest
	// MissingShards lists shards excluded from Study (quarantined, or
	// unfinished at cancellation).
	MissingShards []int
	// KillsInjected / CheckpointFaultsInjected total the fault firings
	// across all shard injectors.
	KillsInjected            uint64
	CheckpointFaultsInjected uint64
	// Cache tallies (zero when no cache is configured). These count
	// lookup events, not shards: a shard that crashes and retries looks
	// the cache up once per attempt. A reject is never also a miss.
	CacheHits    uint64
	CacheMisses  uint64
	CacheRejects uint64
}

// ManifestPath locates the campaign manifest inside a state directory.
func ManifestPath(dir string) string { return filepath.Join(dir, "campaign.ctgmani") }

func shardPath(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d.ctgshrd", shard))
}

// campaignFingerprint digests every Config field that shapes results,
// plus the shard count; checkpoints and manifests never resume across a
// changed fingerprint.
func campaignFingerprint(cfg Config, shards int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range []uint64{
		uint64(cfg.Servers), cfg.MemBytes, uint64(cfg.Design),
		cfg.TicksMin, cfg.TicksMax, math.Float64bits(cfg.JitterFrac),
		cfg.Seed, uint64(shards),
	} {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// span is one shard's slice of the fleet: servers [lo, lo+n).
type span struct{ lo, n uint64 }

func splitSpans(servers, shards int) []span {
	out := make([]span, shards)
	base := servers / shards
	rem := servers % shards
	var lo uint64
	for i := range out {
		n := uint64(base)
		if i < rem {
			n++
		}
		out[i] = span{lo: lo, n: n}
		lo += n
	}
	return out
}

// ckptStore abstracts where shard checkpoints live: a directory of
// CTGSHRD files, or process memory for ephemeral campaigns.
type ckptStore interface {
	write(ck *snapshot.ShardCheckpoint) error
	// read returns the shard's last checkpoint, nil if none exists yet.
	read(shard int) (*snapshot.ShardCheckpoint, error)
}

type memStore struct {
	mu      sync.Mutex
	byShard map[int]*snapshot.ShardCheckpoint
}

func newMemStore() *memStore {
	return &memStore{byShard: make(map[int]*snapshot.ShardCheckpoint)}
}

func (s *memStore) write(ck *snapshot.ShardCheckpoint) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.byShard[ck.Shard] = ck
	return nil
}

func (s *memStore) read(shard int) (*snapshot.ShardCheckpoint, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.byShard[shard], nil
}

type dirStore struct{ dir string }

func (s dirStore) write(ck *snapshot.ShardCheckpoint) error {
	return snapshot.WriteShard(shardPath(s.dir, ck.Shard), ck)
}

func (s dirStore) read(shard int) (*snapshot.ShardCheckpoint, error) {
	ck, err := snapshot.ReadShard(shardPath(s.dir, shard))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	return ck, err
}

// campaign is the shared state of one supervised study: the sample merge
// slots, the checkpoint store, the per-shard injectors, and the manifest
// mirror guarded by mu (checkpoint notes arrive from worker goroutines,
// lifecycle notes from the supervisor goroutine).
type campaign struct {
	cfg           SupervisedConfig
	fp            uint64
	spans         []span
	samples       []Sample
	store         ckptStore
	checkpointing bool
	ckptEvery     uint64
	injectors     []*fault.Injector

	// Result cache (nil disables). cacheKeys holds one content address
	// per shard.
	cache     resultcache.Cache
	cacheKeys []uint64

	mu   sync.Mutex
	man  *snapshot.Manifest
	base []uint64 // manifest attempt counts inherited from prior processes
	// Per-shard cache verdicts (guarded by mu; written from worker
	// goroutines, read by the supervisor goroutine for tracepoints) and
	// the campaign tallies surfaced in CampaignResult.
	cacheState        []cacheOutcome
	cacheRejected     []bool
	cacheRejectReason []uint64
	cacheHits         uint64
	cacheMisses       uint64
	cacheRejects      uint64
}

// RunSupervised executes the study as a supervised sharded campaign.
// Setup and resume failures (bad state directory, tampered manifest,
// fingerprint mismatch) return an error; execution failures never do —
// they degrade the CampaignResult's report instead.
func RunSupervised(ctx context.Context, scfg SupervisedConfig) (*CampaignResult, error) {
	// A pre-cancelled context is a setup error, not a degraded run: report
	// the cancellation instead of returning an empty "incomplete" result
	// (which would surface as fleet.Run's unfaulted-study panic).
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("fleet: campaign canceled before start: %w", err)
	}
	fcfg := scfg.Fleet
	if fcfg.Servers <= 0 {
		return nil, fmt.Errorf("fleet: campaign needs at least one server")
	}
	shards := resolveShards(fcfg)

	c := &campaign{
		cfg:     scfg,
		fp:      campaignFingerprint(fcfg, shards),
		spans:   splitSpans(fcfg.Servers, shards),
		samples: make([]Sample, fcfg.Servers),
		base:    make([]uint64, shards),
	}
	c.checkpointing = scfg.Dir != "" || scfg.Faults.armed() || scfg.CheckpointEvery > 0
	c.ckptEvery = uint64(scfg.CheckpointEvery)
	if c.ckptEvery == 0 {
		c.ckptEvery = 1
	}
	if scfg.Dir != "" {
		c.store = dirStore{dir: scfg.Dir}
	} else {
		c.store = newMemStore()
	}
	c.injectors = make([]*fault.Injector, shards)
	for i := range c.injectors {
		c.injectors[i] = scfg.Faults.injector(fcfg.Seed, i)
	}
	if scfg.Cache != nil {
		c.cache = scfg.Cache
		c.cacheKeys = make([]uint64, shards)
		for i := range c.cacheKeys {
			c.cacheKeys[i] = ShardCacheKey(fcfg, i)
		}
		c.cacheState = make([]cacheOutcome, shards)
		c.cacheRejected = make([]bool, shards)
		c.cacheRejectReason = make([]uint64, shards)
		// Whatever happens below, never exit still leading a singleflight
		// key — followers in other campaigns would wait out their timeout.
		defer c.releaseFlight()
	}

	if scfg.Resume {
		if scfg.Dir == "" {
			return nil, fmt.Errorf("fleet: resume requires a state directory")
		}
		m, err := snapshot.ReadManifest(ManifestPath(scfg.Dir))
		if err != nil {
			return nil, err
		}
		if m.Campaign != c.fp {
			return nil, fmt.Errorf("%w: manifest %016x, configuration %016x",
				snapshot.ErrCampaignMismatch, m.Campaign, c.fp)
		}
		if len(m.Shards) != shards {
			return nil, fmt.Errorf("%w: manifest has %d shards, configuration %d",
				snapshot.ErrCampaignMismatch, len(m.Shards), shards)
		}
		c.man = m
		for i := range m.Shards {
			c.base[i] = m.Shards[i].Attempts
			// A fresh process grants quarantined shards a fresh budget;
			// their lifetime attempt count keeps accumulating.
			if m.Shards[i].Status == snapshot.ShardQuarantined {
				m.Shards[i].Status = snapshot.ShardPending
			}
		}
	} else {
		c.man = &snapshot.Manifest{Campaign: c.fp, Shards: make([]snapshot.ManifestShard, shards)}
		for i := range c.man.Shards {
			c.man.Shards[i] = snapshot.ManifestShard{Shard: i, Units: c.spans[i].n}
		}
		if scfg.Dir != "" {
			c.mu.Lock()
			err := c.persistLocked()
			c.mu.Unlock()
			if err != nil {
				return nil, err
			}
		}
	}

	// Seed the progress board with every shard's span (and, on resume,
	// the units the manifest already credits) before the first attempt
	// dispatches, so totals never appear as zero mid-flight.
	var observer supervise.Observer
	if scfg.Progress != nil {
		observer = scfg.Progress
		for i := range c.spans {
			scfg.Progress.ObserveUnits(i, c.man.Shards[i].Done, c.spans[i].n)
		}
	}

	rep := supervise.Run(ctx, supervise.Config{
		Shards:      shards,
		Workers:     scfg.Workers,
		MaxAttempts: scfg.MaxAttempts,
		BackoffBase: scfg.BackoffBase,
		BackoffCap:  scfg.BackoffCap,
		Heartbeat:   scfg.Heartbeat,
		Open:        c.open,
		OnEvent:     c.onEvent,
		Observer:    observer,
		Trace:       scfg.Trace,
		Metrics:     scfg.Metrics,
	})

	res := &CampaignResult{Report: rep, Manifest: c.man}
	for _, in := range c.injectors {
		res.KillsInjected += in.Fired(fault.PointFleetShardCrash)
		res.CheckpointFaultsInjected += in.Fired(fault.PointFleetCheckpointWrite)
	}
	if c.cache != nil {
		c.mu.Lock()
		res.CacheHits, res.CacheMisses, res.CacheRejects = c.cacheHits, c.cacheMisses, c.cacheRejects
		c.mu.Unlock()
		if reg := scfg.Metrics; reg != nil {
			// Counters are single-writer; fold the campaign tallies in once,
			// here, after every worker has joined. Reuse-by-name so repeated
			// campaigns against one registry accumulate.
			counter := func(name string) *telemetry.Counter {
				if mc := reg.Counter(name); mc != nil {
					return mc
				}
				return reg.NewCounter(name)
			}
			counter("cache_hits").Add(res.CacheHits)
			counter("cache_misses").Add(res.CacheMisses)
			counter("cache_rejects").Add(res.CacheRejects)
		}
	}
	if rep.Complete {
		res.Study = &Study{Cfg: fcfg, Samples: c.samples}
		return res, nil
	}
	// Partial degradation: keep finished shards' servers in canonical
	// shard order, name the missing shards explicitly.
	partial := make([]Sample, 0, len(c.samples))
	for i := range rep.Shards {
		if rep.Shards[i].Status == supervise.StatusDone {
			sp := c.spans[i]
			partial = append(partial, c.samples[sp.lo:sp.lo+sp.n]...)
		} else {
			res.MissingShards = append(res.MissingShards, i)
		}
	}
	res.Study = &Study{Cfg: fcfg, Samples: partial}
	return res, nil
}

// open creates or resumes one shard attempt. The result cache is
// consulted first (a trusted whole-shard entry finishes the shard before
// its first Step — no plans, no checkpoint restore); otherwise plans are
// redrawn from the shard's seed (cheap, deterministic) and progress is
// restored from the shard's last checkpoint after verifying it against
// the manifest. Open runs on a worker goroutine before the heartbeat
// watchdog arms, so the bounded singleflight wait inside tryCache is
// safe here.
func (c *campaign) open(shard, attempt int) (supervise.Shard, error) {
	sp := c.spans[shard]
	sr := &shardRun{c: c, shard: shard, units: sp.n, inj: c.injectors[shard]}
	sr.samples = make([]Sample, sp.n)
	if c.cache != nil && c.tryCache(sr) {
		return sr, nil
	}
	rng := stats.NewRNG(stats.ShardSeed(c.cfg.Fleet.Seed, shard))
	sr.plans = drawPlans(c.cfg.Fleet, rng, int(sp.n))
	if !c.checkpointing {
		return sr, nil
	}
	ck, err := c.store.read(shard)
	if err != nil || ck == nil {
		return sr, err
	}
	if err := c.adoptCheckpoint(ck); err != nil {
		return nil, err
	}
	var done []Sample
	if err := gob.NewDecoder(bytes.NewReader(ck.Payload)).Decode(&done); err != nil {
		return nil, fmt.Errorf("%w: shard %d payload: %v", snapshot.ErrShardCheckpoint, shard, err)
	}
	if uint64(len(done)) != ck.Done || ck.Done > sp.n {
		return nil, fmt.Errorf("%w: shard %d payload holds %d samples, header says %d of %d",
			snapshot.ErrShardCheckpoint, shard, len(done), ck.Done, sp.n)
	}
	copy(sr.samples, done)
	sr.done = ck.Done
	sr.seq = ck.Seq
	sr.chain = ck.ChainHash
	return sr, nil
}

// adoptCheckpoint verifies a loaded checkpoint against the manifest.
// The one disagreement it forgives is the crash-consistency window: the
// checkpoint is exactly one sealed link ahead of the manifest record
// (its PrevChainHash equals the recorded chain), in which case the
// manifest rolls forward.
func (c *campaign) adoptCheckpoint(ck *snapshot.ShardCheckpoint) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	err := snapshot.VerifyShardAgainstManifest(c.man, ck)
	if err == nil {
		return nil
	}
	if errors.Is(err, snapshot.ErrShardMismatch) && ck.Shard >= 0 && ck.Shard < len(c.man.Shards) {
		rec := &c.man.Shards[ck.Shard]
		if ck.Seq == rec.Seq+1 && ck.PrevChainHash == rec.Chain && ck.Done >= rec.Done {
			rec.Seq, rec.Chain, rec.Done = ck.Seq, ck.ChainHash, ck.Done
			return c.persistLocked()
		}
	}
	return err
}

// noteCheckpoint records a freshly written checkpoint in the manifest.
// Called from worker goroutines, hence the lock.
func (c *campaign) noteCheckpoint(ck *snapshot.ShardCheckpoint) error {
	c.mu.Lock()
	rec := &c.man.Shards[ck.Shard]
	rec.Seq, rec.Chain, rec.Done = ck.Seq, ck.ChainHash, ck.Done
	err := c.persistLocked()
	c.mu.Unlock()
	if p := c.cfg.Progress; p != nil {
		p.ObserveUnits(ck.Shard, ck.Done, c.spans[ck.Shard].n)
	}
	return err
}

// persistLocked atomically rewrites the sealed manifest when the
// campaign is durable. Callers hold c.mu.
func (c *campaign) persistLocked() error {
	if c.cfg.Dir == "" {
		return nil
	}
	return snapshot.WriteManifest(ManifestPath(c.cfg.Dir), c.man)
}

// onEvent folds supervision decisions into the manifest (attempt counts,
// terminal statuses) before forwarding to the owner's callback. Runs on
// the supervisor goroutine only.
func (c *campaign) onEvent(ev supervise.Event) {
	c.mu.Lock()
	rec := &c.man.Shards[ev.Shard]
	if a := c.base[ev.Shard] + uint64(ev.Attempt); a > rec.Attempts {
		rec.Attempts = a
	}
	switch ev.Kind {
	case supervise.EventDone:
		rec.Status = snapshot.ShardDone
		// Cache tracepoints ride the done event so they are emitted from
		// the supervisor goroutine (the Ring's single-writer contract).
		if c.cache != nil && c.cfg.Trace.Enabled() {
			key := c.cacheKeys[ev.Shard]
			if c.cacheRejected[ev.Shard] {
				c.cfg.Trace.Emit(uint64(ev.Attempt), telemetry.EvCacheReject,
					uint64(ev.Shard), key, c.cacheRejectReason[ev.Shard])
			}
			switch c.cacheState[ev.Shard] {
			case cacheHit:
				c.cfg.Trace.Emit(uint64(ev.Attempt), telemetry.EvCacheHit,
					uint64(ev.Shard), key, c.spans[ev.Shard].n)
			case cacheMiss:
				c.cfg.Trace.Emit(uint64(ev.Attempt), telemetry.EvCacheMiss,
					uint64(ev.Shard), key, c.spans[ev.Shard].n)
			}
		}
	case supervise.EventQuarantine:
		rec.Status = snapshot.ShardQuarantined
	}
	// Best-effort: a lost lifecycle write self-heals on resume (the
	// checkpoint chain carries progress; attempts only ever undercount).
	_ = c.persistLocked()
	c.mu.Unlock()
	if c.cfg.OnEvent != nil {
		c.cfg.OnEvent(ev)
	}
}

// shardRun is one shard attempt: a supervise.Shard stepping one server
// at a time, checkpointing on its cadence, and crossing the injected
// fault points at server boundaries.
type shardRun struct {
	c          *campaign
	shard      int
	units      uint64
	done       uint64
	seq, chain uint64
	plans      []serverPlan
	samples    []Sample
	scratch    mem.ContiguityStats
	inj        *fault.Injector
	// fromCache marks a shard served wholly from the result cache;
	// cachePut arms population (and singleflight release) at completion.
	fromCache bool
	cachePut  bool
	cacheKey  uint64
}

// Step simulates the next server. The injected crash fires after the
// server completes but before it is checkpointed, so a kill genuinely
// loses work and the retry genuinely recomputes it.
func (sr *shardRun) Step() (bool, error) {
	if sr.done >= sr.units {
		sr.finish()
		return true, nil
	}
	sr.samples[sr.done] = runServer(sr.c.cfg.Fleet, sr.plans[sr.done], &sr.scratch)
	sr.done++
	if sr.inj.Should(fault.PointFleetShardCrash) {
		panic(fmt.Sprintf("fleet: injected shard crash (shard %d, %d/%d servers)",
			sr.shard, sr.done, sr.units))
	}
	if sr.c.checkpointing && (sr.done == sr.units || sr.done%sr.c.ckptEvery == 0) {
		if err := sr.checkpoint(); err != nil {
			return false, err
		}
	}
	if sr.done >= sr.units {
		sr.finish()
		return true, nil
	}
	return false, nil
}

// finish merges the completed shard and, when this attempt owns the
// shard's cache key, populates the result cache and releases its
// singleflight followers. A cache-hit shard (fromCache, cachePut unset)
// merges without re-writing the entry it was served from; a shard that
// resumed to completion from a checkpoint still populates — its samples
// are the same pure function of the inputs.
func (sr *shardRun) finish() {
	sr.publish()
	if p := sr.c.cfg.Progress; p != nil {
		p.ObserveUnits(sr.shard, sr.units, sr.units)
	}
	if sr.cachePut {
		sr.c.populateCache(sr)
	}
}

// checkpoint seals the next chain link over the completed samples,
// writes it, and records it in the manifest.
func (sr *shardRun) checkpoint() error {
	if sr.inj.Should(fault.PointFleetCheckpointWrite) {
		return fmt.Errorf("fleet: injected checkpoint write failure (shard %d, seq %d)",
			sr.shard, sr.seq+1)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(sr.samples[:sr.done]); err != nil {
		return fmt.Errorf("fleet: encode shard %d checkpoint: %w", sr.shard, err)
	}
	ck := &snapshot.ShardCheckpoint{
		Campaign: sr.c.fp,
		Shard:    sr.shard,
		Seq:      sr.seq + 1,
		Done:     sr.done,
		Payload:  buf.Bytes(),
	}
	chain := ck.Seal(sr.chain)
	if err := sr.c.store.write(ck); err != nil {
		return fmt.Errorf("fleet: write shard %d checkpoint: %w", sr.shard, err)
	}
	if err := sr.c.noteCheckpoint(ck); err != nil {
		return fmt.Errorf("fleet: record shard %d checkpoint: %w", sr.shard, err)
	}
	sr.seq, sr.chain = ck.Seq, chain
	return nil
}

// publish merges the shard's samples into its disjoint campaign slot.
func (sr *shardRun) publish() {
	sp := sr.c.spans[sr.shard]
	copy(sr.c.samples[sp.lo:sp.lo+sp.n], sr.samples[:sr.units])
}

package fleet

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"os"
	"reflect"
	"sync"
	"testing"

	"contiguitas/internal/core"
	"contiguitas/internal/resultcache"
	"contiguitas/internal/telemetry"
	"contiguitas/internal/workload"
)

// TestGobBytesDeterministic: the values sealed into CTGSNAP (the
// kernel's scan witness) and into CTGSHRD/CTGCACH (shard samples)
// gob-encode to one byte string however often they are encoded, so
// equal states write byte-identical files.
func TestGobBytesDeterministic(t *testing.T) {
	mc := core.DefaultMachineConfig(core.DesignContiguitas)
	mc.MemBytes = 64 << 20
	m := core.NewMachine(mc)
	m.Attach(workload.Web(), 1).Run(20)
	for name, v := range map[string]any{
		"ContiguityStats": m.Scan(),
		"[]Sample":        Run(tinyConfig()).Samples,
	} {
		var first []byte
		for i := 0; i < 32; i++ {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(v); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if i == 0 {
				first = buf.Bytes()
			} else if !bytes.Equal(buf.Bytes(), first) {
				t.Fatalf("%s: encoding %d differs from the first", name, i)
			}
		}
	}
}

// runCached executes one supervised campaign over cfg with the given
// cache and fails the test on any setup error or incomplete report.
func runCached(t *testing.T, cfg Config, cache resultcache.Cache) *CampaignResult {
	t.Helper()
	res, err := RunSupervised(context.Background(), SupervisedConfig{Fleet: cfg, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Complete {
		t.Fatalf("campaign incomplete: %s", res.Report)
	}
	return res
}

// TestCacheWarmRunIdentical: a warm run hits on every shard and its
// merged study is identical to both the cold run and an uncached run.
func TestCacheWarmRunIdentical(t *testing.T) {
	cfg := tinyConfig()
	cache := resultcache.NewDir(t.TempDir(), CacheSchemaVersion)

	uncached := Run(cfg)
	cold := runCached(t, cfg, cache)
	if cold.CacheHits != 0 || cold.CacheMisses != uint64(cfg.Shards) || cold.CacheRejects != 0 {
		t.Fatalf("cold tallies hits=%d misses=%d rejects=%d, want 0/%d/0",
			cold.CacheHits, cold.CacheMisses, cold.CacheRejects, cfg.Shards)
	}
	warm := runCached(t, cfg, cache)
	if warm.CacheHits != uint64(cfg.Shards) || warm.CacheMisses != 0 || warm.CacheRejects != 0 {
		t.Fatalf("warm tallies hits=%d misses=%d rejects=%d, want %d/0/0",
			warm.CacheHits, warm.CacheMisses, warm.CacheRejects, cfg.Shards)
	}
	if !reflect.DeepEqual(cold.Study.Samples, warm.Study.Samples) {
		t.Fatal("warm study differs from cold study")
	}
	if !reflect.DeepEqual(uncached.Samples, warm.Study.Samples) {
		t.Fatal("warm study differs from uncached study")
	}
}

// TestCacheDistinctConfigsDistinctKeys: changing any result-relevant
// Config field changes every shard key; changing a supervision knob
// changes none.
func TestCacheDistinctConfigsDistinctKeys(t *testing.T) {
	base := tinyConfig()
	variants := []func(*Config){
		func(c *Config) { c.Seed++ },
		func(c *Config) { c.MemBytes *= 2 },
		func(c *Config) { c.TicksMax++ },
		func(c *Config) { c.JitterFrac += 0.01 },
	}
	for vi, mutate := range variants {
		cfg := base
		mutate(&cfg)
		for shard := 0; shard < base.Shards; shard++ {
			if ShardCacheKey(cfg, shard) == ShardCacheKey(base, shard) {
				t.Fatalf("variant %d shard %d: key unchanged by result-relevant field", vi, shard)
			}
		}
	}
	// Shard identity separates keys within one config.
	seen := make(map[uint64]int)
	for shard := 0; shard < base.Shards; shard++ {
		k := ShardCacheKey(base, shard)
		if prev, dup := seen[k]; dup {
			t.Fatalf("shards %d and %d share key %016x", prev, shard, k)
		}
		seen[k] = shard
	}
}

// TestCacheCorruptEntryRecomputed: a tampered entry is rejected
// (counted, never trusted), the shard recomputes, the campaign stays
// correct, and the recompute heals the entry in place.
func TestCacheCorruptEntryRecomputed(t *testing.T) {
	cfg := tinyConfig()
	dir := t.TempDir()
	cache := resultcache.NewDir(dir, CacheSchemaVersion)
	want := runCached(t, cfg, cache).Study.Samples

	path := cache.EntryPath(ShardCacheKey(cfg, 1))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	res := runCached(t, cfg, cache)
	if res.CacheRejects < 1 {
		t.Fatalf("rejects = %d, want >= 1", res.CacheRejects)
	}
	if res.CacheHits != uint64(cfg.Shards-1) {
		t.Fatalf("hits = %d, want %d (every untouched shard)", res.CacheHits, cfg.Shards-1)
	}
	if !reflect.DeepEqual(res.Study.Samples, want) {
		t.Fatal("study changed after cache corruption")
	}
	// Healed: the next run hits on every shard, including the tampered one.
	if res := runCached(t, cfg, cache); res.CacheHits != uint64(cfg.Shards) {
		t.Fatalf("post-heal hits = %d, want %d", res.CacheHits, cfg.Shards)
	}
}

// TestCacheStaleSchemaRecomputed: entries written under an older cache
// schema are rejected wholesale and rewritten under the current one.
func TestCacheStaleSchemaRecomputed(t *testing.T) {
	cfg := tinyConfig()
	dir := t.TempDir()
	old := resultcache.NewDir(dir, CacheSchemaVersion)
	want := runCached(t, cfg, old).Study.Samples

	cur := resultcache.NewDir(dir, CacheSchemaVersion+1)
	res := runCached(t, cfg, cur)
	if res.CacheRejects != uint64(cfg.Shards) || res.CacheHits != 0 {
		t.Fatalf("stale run hits=%d rejects=%d, want 0/%d", res.CacheHits, res.CacheRejects, cfg.Shards)
	}
	if !reflect.DeepEqual(res.Study.Samples, want) {
		t.Fatal("study changed across schema bump (generative model did not change)")
	}
	if res := runCached(t, cfg, cur); res.CacheHits != uint64(cfg.Shards) {
		t.Fatalf("post-rewrite hits = %d, want %d", res.CacheHits, cfg.Shards)
	}
}

// TestCacheLRUBackendAndMetrics: the in-memory backend behaves like the
// disk backend for in-process sweeps, and the campaign folds its tallies
// into the cache_hits/cache_misses/cache_rejects registry counters.
func TestCacheLRUBackendAndMetrics(t *testing.T) {
	cfg := tinyConfig()
	cache := resultcache.NewLRU(64)
	reg := telemetry.NewRegistry()
	run := func() *CampaignResult {
		res, err := RunSupervised(context.Background(), SupervisedConfig{Fleet: cfg, Cache: cache, Metrics: reg})
		if err != nil || !res.Report.Complete {
			t.Fatalf("run: %v, %v", err, res)
		}
		return res
	}
	cold, warm := run(), run()
	if !reflect.DeepEqual(cold.Study.Samples, warm.Study.Samples) {
		t.Fatal("LRU warm study differs from cold")
	}
	if warm.CacheHits != uint64(cfg.Shards) {
		t.Fatalf("LRU warm hits = %d, want %d", warm.CacheHits, cfg.Shards)
	}
	if got := reg.Counter("cache_hits").Value(); got != warm.CacheHits {
		t.Fatalf("cache_hits counter = %d, want %d", got, warm.CacheHits)
	}
	if got := reg.Counter("cache_misses").Value(); got != cold.CacheMisses {
		t.Fatalf("cache_misses counter = %d, want %d", got, cold.CacheMisses)
	}
	if got := reg.Counter("cache_rejects").Value(); got != 0 {
		t.Fatalf("cache_rejects counter = %d, want 0", got)
	}
}

// TestCacheTracepoints: cold runs trace cache-miss, warm runs cache-hit,
// all on the cache track, emitted from the supervisor goroutine.
func TestCacheTracepoints(t *testing.T) {
	cfg := tinyConfig()
	cache := resultcache.NewLRU(64)
	countEvents := func(ring *telemetry.Ring, id telemetry.EventID) int {
		n := 0
		for _, rec := range ring.Snapshot(nil) {
			if rec.ID == id {
				n++
			}
		}
		return n
	}
	cold := telemetry.NewRing(1 << 10)
	if _, err := RunSupervised(context.Background(), SupervisedConfig{Fleet: cfg, Cache: cache, Trace: cold}); err != nil {
		t.Fatal(err)
	}
	if got := countEvents(cold, telemetry.EvCacheMiss); got != cfg.Shards {
		t.Fatalf("cold run traced %d cache-miss events, want %d", got, cfg.Shards)
	}
	warm := telemetry.NewRing(1 << 10)
	if _, err := RunSupervised(context.Background(), SupervisedConfig{Fleet: cfg, Cache: cache, Trace: warm}); err != nil {
		t.Fatal(err)
	}
	if got := countEvents(warm, telemetry.EvCacheHit); got != cfg.Shards {
		t.Fatalf("warm run traced %d cache-hit events, want %d", got, cfg.Shards)
	}
	if got := countEvents(warm, telemetry.EvCacheMiss); got != 0 {
		t.Fatalf("warm run traced %d cache-miss events, want 0", got)
	}
}

// TestCacheConcurrentCampaigns: many campaigns over the same
// configuration share one cache and one process-wide singleflight; all
// must complete with identical samples and no deadlock. (Exact Put
// counts are timing-dependent; correctness is not.)
func TestCacheConcurrentCampaigns(t *testing.T) {
	cfg := tinyConfig()
	cache := resultcache.NewLRU(64)
	want := Run(cfg).Samples
	const campaigns = 6
	results := make([][]Sample, campaigns)
	var wg sync.WaitGroup
	for i := 0; i < campaigns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := RunSupervised(context.Background(), SupervisedConfig{Fleet: cfg, Cache: cache})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res.Study.Samples
		}(i)
	}
	wg.Wait()
	for i, got := range results {
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("campaign %d samples differ from uncached reference", i)
		}
	}
}

// TestCacheWithCheckpointResume: a durable, fault-injected campaign and
// the cache coexist — the resumed-to-completion shards still produce the
// canonical study, and a following cached run hits everywhere.
func TestCacheWithCheckpointResume(t *testing.T) {
	cfg := tinyConfig()
	cache := resultcache.NewDir(t.TempDir(), CacheSchemaVersion)
	want := Run(cfg).Samples
	res, err := RunSupervised(context.Background(), SupervisedConfig{
		Fleet: cfg,
		Dir:   t.TempDir(),
		Cache: cache,
		// 3 servers per shard: the third crossing kills each shard once,
		// after its last server but before the final checkpoint.
		Faults: FaultPlan{CrashEveryN: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Complete {
		t.Fatalf("faulted campaign incomplete: %s", res.Report)
	}
	if res.KillsInjected == 0 {
		t.Fatal("fault plan never fired; test is vacuous")
	}
	if !reflect.DeepEqual(res.Study.Samples, want) {
		t.Fatal("faulted cached campaign diverged from canonical study")
	}
	warm := runCached(t, cfg, cache)
	if warm.CacheHits != uint64(cfg.Shards) {
		t.Fatalf("warm-after-faults hits = %d, want %d", warm.CacheHits, cfg.Shards)
	}
	if !reflect.DeepEqual(warm.Study.Samples, want) {
		t.Fatal("warm-after-faults study diverged")
	}
}

// TestRunSupervisedPreCancelledContext: a context cancelled before the
// campaign starts is a reported setup error, not an empty degraded
// result (and therefore never fleet.Run's assertion panic).
func TestRunSupervisedPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunSupervised(ctx, SupervisedConfig{Fleet: tinyConfig()})
	if err == nil {
		t.Fatalf("pre-cancelled campaign returned %+v, want error", res)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want errors.Is(context.Canceled)", err)
	}
}

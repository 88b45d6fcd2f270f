// Result-cache wiring: the campaign layer's use of the content-addressed
// shard cache (internal/resultcache).
//
// A shard's samples are a pure function of its input closure — the
// result-relevant Config fields, the stats.ShardSeed-derived RNG stream,
// and the shard span — so a cache entry keyed on the canonical digest of
// that closure can replace the shard's entire simulation. Lookup happens
// at shard open (a hit finishes the shard before its first Step),
// population at shard completion, and every rejection (corrupt, torn,
// swapped, or stale-schema entry) is counted and transparently
// recomputed; the recompute's Put overwrites the bad entry in place.
//
// Cache-key granularity equals shard granularity: two campaigns reuse
// each other's work only where their shard partitions agree, so sweeps
// that want maximal reuse should pin Config.Shards (finer shards → more,
// smaller units of reuse; see DefaultShards).
package fleet

import (
	"bytes"
	"encoding/gob"
	"errors"
	"hash/fnv"
	"math"
	"time"

	"contiguitas/internal/resultcache"
	"contiguitas/internal/stats"
)

// CacheSchemaVersion versions the generative model behind shard samples:
// drawPlans' draw sequence, runServer's simulation semantics, and the
// Sample field set. Bump it whenever any of those change meaning, so
// entries written by older simulators are rejected (ErrStaleSchema) and
// recomputed instead of silently trusted. The version is deliberately
// NOT folded into the cache key: inside the key it would merely orphan
// old entries as misses, while in the envelope it makes staleness a
// detected, counted rejection.
//
// Version history: 1 — initial; 2 — Sample's per-order fractions became
// fixed arrays (deterministic gob bytes).
const CacheSchemaVersion = 2

// cacheWait bounds a singleflight follower's wait for the leader's
// Put. The flight is an optimization, never a correctness gate: a
// follower that outwaits a wedged leader simulates the shard itself.
const cacheWait = 10 * time.Second

// shardFlight dedups concurrent identical-key shard computations across
// every campaign in the process, so two sweeps racing over the same grid
// simulate each configuration once. Leadership is owned per campaign and
// released at the latest when its RunSupervised returns.
var shardFlight = resultcache.NewFlight()

// resolveShards returns the effective shard count for cfg: Config.Shards
// when positive, the DefaultShards partition otherwise, never more than
// one shard per server.
func resolveShards(cfg Config) int {
	shards := cfg.Shards
	if shards <= 0 {
		shards = DefaultShards(cfg.Servers)
	}
	if shards > cfg.Servers {
		shards = cfg.Servers
	}
	return shards
}

// ShardCacheKey digests shard's full input closure under cfg: every
// Config field the samples depend on, the shard's RNG stream seed
// (stats.ShardSeed — covering Seed and the shard index), and the shard's
// span in the fleet. Configs that differ only in supervision knobs
// (workers, backoff, checkpoint cadence, fault plans) map to the same
// key, because they cannot change a single sample byte.
func ShardCacheKey(cfg Config, shard int) uint64 {
	sp := splitSpans(cfg.Servers, resolveShards(cfg))[shard]
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range []uint64{
		cfg.MemBytes, uint64(cfg.Design), cfg.TicksMin, cfg.TicksMax,
		math.Float64bits(cfg.JitterFrac),
		stats.ShardSeed(cfg.Seed, shard),
		sp.lo, sp.n,
	} {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// cacheOutcome is a shard's final cache verdict, reported as an
// EvCacheHit/EvCacheMiss tracepoint when the shard completes.
type cacheOutcome uint8

const (
	cacheNone cacheOutcome = iota
	cacheHit
	cacheMiss
)

// Tracepoint reason codes for EvCacheReject.
const (
	cacheRejectCorrupt = 0
	cacheRejectSchema  = 1
)

// tryCache serves sr wholly from the result cache when a trustworthy
// entry exists, returning true iff the shard is complete. On a miss it
// takes (or briefly waits on) the key's singleflight leadership and arms
// sr to populate the cache at completion.
func (c *campaign) tryCache(sr *shardRun) bool {
	key := c.cacheKeys[sr.shard]
	if c.loadCached(sr, key, true) {
		return true
	}
	// Miss or rejected entry: elect one computation per key across the
	// process. A follower waits bounded and then computes anyway —
	// duplicate work beats any chance of cross-campaign deadlock — and a
	// crashed leader's retry re-joins as leader (ownership is the
	// campaign, not the attempt).
	if leader, wait := shardFlight.Join(key, c); !leader {
		if wait(cacheWait) && c.loadCached(sr, key, false) {
			return true
		}
	}
	sr.cacheKey, sr.cachePut = key, true
	return false
}

// loadCached attempts one cache read into sr. count selects whether the
// campaign tallies move: the post-singleflight re-read is an internal
// detail (the shard's outcome stays "miss"; the flight merely saved the
// duplicate work), so only the first read per open counts.
func (c *campaign) loadCached(sr *shardRun, key uint64, count bool) bool {
	payload, err := c.cache.Get(key)
	if err == nil {
		var got []Sample
		if derr := gob.NewDecoder(bytes.NewReader(payload)).Decode(&got); derr != nil || uint64(len(got)) != sr.units {
			// The envelope verified but the payload is not a shard of the
			// expected shape — still a lie, still recomputed.
			if count {
				c.noteCacheReject(sr.shard, cacheRejectCorrupt)
			}
			return false
		}
		copy(sr.samples, got)
		sr.done = sr.units
		sr.fromCache = true
		if count {
			c.noteCacheOutcome(sr.shard, cacheHit)
		}
		return true
	}
	if !count {
		return false
	}
	switch {
	case errors.Is(err, resultcache.ErrStaleSchema):
		c.noteCacheReject(sr.shard, cacheRejectSchema)
	case resultcache.IsReject(err):
		c.noteCacheReject(sr.shard, cacheRejectCorrupt)
	case errors.Is(err, resultcache.ErrMiss):
		c.noteCacheOutcome(sr.shard, cacheMiss)
	default:
		// Operational error (unreadable cache directory): the cache is
		// best-effort, so degrade to a miss rather than failing the shard.
		c.noteCacheOutcome(sr.shard, cacheMiss)
	}
	return false
}

// noteCacheOutcome records a shard's hit/miss and moves the campaign
// tallies. Called from worker goroutines, hence the lock.
func (c *campaign) noteCacheOutcome(shard int, o cacheOutcome) {
	c.mu.Lock()
	c.cacheState[shard] = o
	switch o {
	case cacheHit:
		c.cacheHits++
	case cacheMiss:
		c.cacheMisses++
	}
	hits, misses, rejects := c.cacheHits, c.cacheMisses, c.cacheRejects
	c.mu.Unlock()
	if p := c.cfg.Progress; p != nil {
		p.ObserveCache(hits, misses, rejects)
	}
}

// noteCacheReject records a refused entry: the rejection is tallied on
// its own counter (never as a miss) and the shard proceeds to recompute.
func (c *campaign) noteCacheReject(shard int, reason uint64) {
	c.mu.Lock()
	c.cacheState[shard] = cacheMiss
	c.cacheRejected[shard] = true
	c.cacheRejectReason[shard] = reason
	c.cacheRejects++
	hits, misses, rejects := c.cacheHits, c.cacheMisses, c.cacheRejects
	c.mu.Unlock()
	if p := c.cfg.Progress; p != nil {
		p.ObserveCache(hits, misses, rejects)
	}
}

// populateCache stores a freshly computed shard and releases the key's
// singleflight followers. A failed Put degrades future runs to
// recompute, never this one — the result is already merged.
func (c *campaign) populateCache(sr *shardRun) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(sr.samples[:sr.units]); err == nil {
		_ = c.cache.Put(sr.cacheKey, buf.Bytes())
	}
	shardFlight.Finish(sr.cacheKey, c)
}

// releaseFlight abandons any singleflight leadership the campaign still
// holds (crashed-then-quarantined shards, cancellation). Idempotent and
// owner-scoped, so sweeping every key is safe.
func (c *campaign) releaseFlight() {
	for _, key := range c.cacheKeys {
		shardFlight.Finish(key, c)
	}
}

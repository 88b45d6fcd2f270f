package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"time"

	"contiguitas/internal/core"
	"contiguitas/internal/fleet"
	"contiguitas/internal/resultcache"
)

// sweepShards is the shard count of every sweep cell; shards are the
// unit of result-cache reuse.
const sweepShards = 2

// warmSetups is how many times set-up populates a fresh cache.
const warmSetups = 5

// warmSweep: fleet.RunSupervised over a design × mem × jitter × seed
// grid with an on-disk result cache populated during set-up. Every
// measured shard is a cache hit, so the work is the cache's read path:
// vfs reads, CTGCACH envelope decode and the study merge.
func warmSweep(b *bench) error {
	b.root = "fleet.cell"
	defer b.installFS()()
	seeds := seedStream(b.seed, 4)
	studySeeds := []uint64{nextSeed(seeds), nextSeed(seeds), nextSeed(seeds), nextSeed(seeds)}
	var grid []fleet.Config
	for _, design := range []core.Design{core.DesignLinux, core.DesignContiguitas} {
		for _, memMiB := range []uint64{32, 64} {
			for _, jitter := range []float64{0, 0.3} {
				for _, seed := range studySeeds {
					cfg := fleet.DefaultConfig()
					cfg.Servers, cfg.MemBytes, cfg.Design = 8, memMiB<<20, design
					cfg.TicksMin, cfg.TicksMax = 5, 20
					cfg.JitterFrac, cfg.Seed, cfg.Shards = jitter, seed, sweepShards
					grid = append(grid, cfg)
				}
			}
		}
	}
	cellKey := func(cfg fleet.Config) string {
		return fmt.Sprintf("cell %s mem=%d jitter=%g seed=%d", cfg.Design, cfg.MemBytes>>20, cfg.JitterFrac, cfg.Seed)
	}

	// Set-up populates a fresh cache directory with the cold grid; the
	// last one serves the measured passes. A set-up is short and
	// fsync-heavy, so it is repeated more often than on the other
	// workloads to steady its median.
	cold := make([][]byte, len(grid))
	var cache resultcache.Cache
	var coldMisses uint64
	err := b.timeSetup(warmSetups, func(i int) error {
		coldMisses = 0
		var c resultcache.Cache = resultcache.NewDir(filepath.Join(b.work, fmt.Sprintf("cache-%d", i)), fleet.CacheSchemaVersion)
		if b.traced {
			c = timedCache{Cache: c, tr: b.tr}
		}
		for j, cfg := range grid {
			res, err := fleet.RunSupervised(context.Background(), fleet.SupervisedConfig{Fleet: cfg, Cache: c})
			if err != nil {
				return fmt.Errorf("%s: %w", cellKey(cfg), err)
			}
			if !res.Report.Complete || res.CacheMisses != sweepShards || res.CacheHits != 0 {
				return fmt.Errorf("%s: cold run %s, cache hits=%d misses=%d", cellKey(cfg), res.Report, res.CacheHits, res.CacheMisses)
			}
			coldMisses += res.CacheMisses
			got := fleet.CanonicalBytes(res.Study)
			if i == 0 {
				cold[j] = got
				b.pin(cellKey(cfg), fmt.Sprintf("%016x", fnvSum(got)))
			} else if !bytes.Equal(got, cold[j]) {
				b.problem("%s: cold run %d differs from cold run 0", cellKey(cfg), i)
			}
		}
		cache = c
		return nil
	})
	if err != nil {
		return err
	}
	b.counts["resultcache.misses_per_cold_grid"] = coldMisses

	var hits, misses, rejects uint64
	var tracedCells float64
	attempts := 0
	pass := 0
	b.measure(func(until time.Time) []float64 {
		var lat []float64
		var busy time.Duration
		results := make([]*fleet.CampaignResult, len(grid))
		for time.Now().Before(until) {
			pass++
			start := time.Now()
			for j, cfg := range grid {
				scfg := fleet.SupervisedConfig{Fleet: cfg, Cache: cache}
				label := fmt.Sprintf("pass-%d/cell-%02d", pass, j)
				var root, rootStart int64
				var sink *progressSpans
				if b.tr.active() {
					root, rootStart = b.tr.reserve(), b.tr.now()
					sink = newProgressSpans(b.tr, label, root)
					scfg.Progress = sink
					b.tr.setTrace(label)
				}
				res, err := fleet.RunSupervised(context.Background(), scfg)
				if err != nil {
					b.problem("%s: warm run: %v", cellKey(cfg), err)
					return lat
				}
				results[j] = res
				if root != 0 {
					b.tr.addID(root, label, "fleet.cell", 0, rootStart, b.tr.now())
					attempts += sink.attempts
				}
			}
			d := time.Since(start)
			busy += d
			lat = append(lat, d.Seconds())

			// Output checks, outside the timed pass: every shard a hit,
			// every cell byte-identical to the set-up's cold result.
			for j, res := range results {
				b.checkOp(func() {
					if !res.Report.Complete || res.CacheHits != sweepShards || res.CacheMisses != 0 || res.CacheRejects != 0 {
						b.problem("%s: warm run %s, cache hits=%d misses=%d rejects=%d",
							cellKey(grid[j]), res.Report, res.CacheHits, res.CacheMisses, res.CacheRejects)
					} else if !bytes.Equal(fleet.CanonicalBytes(res.Study), cold[j]) {
						b.problem("%s: warm result differs from the cold result", cellKey(grid[j]))
					}
				})
				if b.tr.active() {
					hits += res.CacheHits
					misses += res.CacheMisses
					rejects += res.CacheRejects
					tracedCells++
				}
			}
		}
		if b.final() {
			cells := len(lat) * len(grid)
			b.note("cells_per_s", float64(cells)/busy.Seconds(), "1/s", cells)
		}
		return lat
	})
	if b.traced {
		b.layer["resultcache.hits"] = float64(hits)
		b.layer["resultcache.misses"] = float64(misses)
		b.layer["resultcache.rejects"] = float64(rejects)
		b.layer["resultcache.bytes_read"] = float64(b.tr.bytesRead.Load())
		b.layer["supervise.attempts"] = ratio(float64(attempts), tracedCells)
		b.layer["go.alloc_mb_per_server"] = ratio(b.layer["go.alloc_mb"], tracedCells*8)
		b.counts["resultcache.hits_per_pass"] = uint64(ratio(float64(hits)*float64(len(grid)), tracedCells))
		b.counts["supervise.attempts_per_cell"] = uint64(ratio(float64(attempts), tracedCells))
	}
	return nil
}

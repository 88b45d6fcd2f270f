// The study and the -sweep grid run as one campaign of an in-process
// campaign service (internal/service) over its memory store: the same
// spec admission, cell execution, retry policy and -serve board wiring
// contigd uses, so the CLI and the daemon cannot drift apart.
package main

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"contiguitas/internal/cli"
	"contiguitas/internal/fleet"
	"contiguitas/internal/resultcache"
	"contiguitas/internal/service"
)

// campaignSpec carries cfg's grid-independent fields into a spec (the
// caller sets the grid). A zero in a spec means "the service default",
// so flags that would be silently replaced that way are refused.
func campaignSpec(name string, cfg fleet.Config) service.Spec {
	for _, f := range []struct {
		name string
		v    uint64
	}{
		{"-servers", uint64(cfg.Servers)},
		{"-seed", cfg.Seed},
		{"-min-uptime", cfg.TicksMin},
		{"-max-uptime", cfg.TicksMax},
	} {
		if f.v == 0 {
			cli.Usagef("fleetscan: %s must be positive (0 would run the service default instead)", f.name)
		}
	}
	return service.Spec{
		Name:     name,
		Servers:  cfg.Servers,
		TicksMin: cfg.TicksMin,
		TicksMax: cfg.TicksMax,
		Seed:     cfg.Seed,
		Shards:   cfg.Shards,
	}
}

// splitCSV parses a comma-separated flag value, exiting 1 on an empty
// list or an unparsable element. Range checks are left to the spec's
// admission, so the CLI and the HTTP API accept the same grids.
func splitCSV[T any](s, flagName string, parse func(string) (T, error)) []T {
	var out []T
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f == "" {
			continue
		}
		v, err := parse(f)
		if err != nil {
			cli.Usagef("fleetscan: %s: bad value %q", flagName, f)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		cli.Usagef("fleetscan: %s needs at least one value", flagName)
	}
	return out
}

// runCampaign submits spec to a fresh scheduler, prints header once the
// spec is admitted, and hands each cell's study to each, in grid order,
// as the cell finishes. A spec the service refuses exits 1; a failed
// campaign exits 2. The returned counters carry the cache tallies.
func runCampaign(spec service.Spec, cache resultcache.Cache, header string, each func(service.Cell, *fleet.Study)) service.Stats {
	store := service.NewMemory()
	cfg := service.SchedulerConfig{Store: store, Cache: cache}
	if obsvHandle != nil {
		cfg.Board, cfg.Bus = obsvHandle.Board, obsvHandle.Bus
	}
	sched := service.NewScheduler(cfg)
	sched.Start()
	defer sched.Drain()

	c, _, err := sched.Submit(spec, "fleetscan")
	if errors.Is(err, service.ErrBadSpec) {
		cli.Usagef("fleetscan: %v", err)
	}
	if err != nil {
		cli.Runtimef("fleetscan: %v", err)
	}
	fmt.Print(header)
	cells := c.Spec.Cells()
	for next := 0; ; {
		for ; next < c.CellsDone; next++ {
			data, _, err := store.GetCell(c.ID, next)
			if err != nil {
				cli.Runtimef("fleetscan: cell %d: %v", next, err)
			}
			s, err := fleet.ParseCanonical(data)
			if err != nil {
				cli.Verifyf("fleetscan: cell %d: %v", next, err)
			}
			each(cells[next], s)
		}
		if c.State.Terminal() {
			break
		}
		time.Sleep(10 * time.Millisecond)
		if c, err = sched.Get(c.ID); err != nil {
			cli.Runtimef("fleetscan: %v", err)
		}
	}
	if c.State == service.StateFailed {
		cli.Verifyf("fleetscan: campaign failed: %s", c.Error)
	}
	return sched.Stats()
}

// cacheLine is the one-line tally the CI cache-correctness job greps;
// keep the key=value shape stable. A cacheless run says so explicitly,
// so a -no-cache run is unambiguous next to a cached run's line.
func cacheLine(st service.Stats, cache resultcache.Cache) string {
	if cache == nil {
		return "cache: disabled"
	}
	return fmt.Sprintf("cache: hits=%d misses=%d rejects=%d", st.CacheHits, st.CacheMisses, st.CacheRejects)
}

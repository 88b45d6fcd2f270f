package main

import (
	"fmt"
	"runtime"
	"time"

	"contiguitas/internal/service"
)

// coldCampaign: a closed loop of one client against contigd, beside one
// dashboard scraper. Each campaign is 32 servers × {linux, contiguitas}
// × 256 MiB with uptimes of 40–120 ticks and 2 shards per cell, under a
// fresh seed, so no two share work and the simulation layers dominate.
func coldCampaign(b *bench) error {
	defer b.installFS()()
	spec := func(seed uint64, servers int) service.Spec {
		return service.Spec{
			Servers: servers, Designs: []string{"linux", "contiguitas"}, MemsMiB: []uint64{256},
			TicksMin: 40, TicksMax: 120, Seed: seed, Shards: 2,
		}
	}
	seeds := seedStream(b.seed, 1)
	d, err := b.startWarmDaemon(func(i int) service.Spec { return spec(uint64(i+1), 4) })
	if err != nil {
		return err
	}
	defer d.stop()
	c := newClient(d.url, runtime.NumCPU(), b.tr)
	defer c.close()

	first := map[uint64]string{}
	var traced []campaignRun
	var tracedServers float64
	n := 0
	b.measure(func(until time.Time) []float64 {
		stop := make(chan struct{})
		scraped := make(chan scrapeResult, 1)
		go func() { scraped <- scrape(c, stop) }()
		var lat []float64
		var ticks uint64
		start := time.Now()
		for time.Now().Before(until) {
			n++
			r := runCampaign(c, fmt.Sprintf("cold-%d", n), spec(nextSeed(seeds), 32), time.Now())
			if !b.recordRun(r, first) {
				continue
			}
			lat = append(lat, r.latency.Seconds())
			ticks += r.ticks
			if b.tr.active() {
				traced = append(traced, r)
				tracedServers += float64(r.spec.Servers * len(r.cells))
			}
		}
		elapsed := time.Since(start)
		close(stop)
		sc := b.foldScrapes(<-scraped)
		if b.final() {
			b.note("campaign_p50_s", median(lat), "s", len(lat))
			b.note("server_ticks_per_s", float64(ticks)/elapsed.Seconds(), "1/s", len(lat))
			b.note("scrape_p90_ms", quantile(sc.latencies, 0.9), "ms", len(sc.latencies))
		}
		return lat
	})
	if b.traced {
		b.layer["go.alloc_mb_per_server"] = ratio(b.layer["go.alloc_mb"], tracedServers)
		b.layer["service.queue_wait_ms"] = median(d.store.waits)
		b.serviceStats(c)
		b.verifyDirect(traced, 2)
		b.representativeServers(256, 80, b.seed)
	}
	return nil
}

// scrapeEvery is the dashboard's cadence.
const scrapeEvery = 250 * time.Millisecond

// foldScrapes counts the dashboard's requests into the run; a failed
// scrape is a failed operation and fails the run.
func (b *bench) foldScrapes(sc scrapeResult) scrapeResult {
	b.attempted += sc.attempted
	for _, e := range sc.errs {
		b.failed++
		b.problem("scrape %s", e)
	}
	return sc
}

type scrapeResult struct {
	latencies []float64 // ms, from each scrape's due time
	attempted int
	errs      []string
}

// scrape is the dashboard: it reads /metrics and /campaigns every
// scrapeEvery until stop is closed.
func scrape(c *client, stop <-chan struct{}) scrapeResult {
	var res scrapeResult
	due := time.Now()
	for {
		due = due.Add(scrapeEvery)
		t := time.NewTimer(time.Until(due))
		select {
		case <-stop:
			t.Stop()
			return res
		case <-t.C:
		}
		for _, path := range []string{"/metrics", "/campaigns"} {
			res.attempted++
			code, _, err := c.do("GET", path, nil, due, "", "obsv.scrape", 0)
			if err != nil || code != 200 {
				res.errs = append(res.errs, fmt.Sprintf("%s: HTTP %d: %v", path, code, err))
				continue
			}
			res.latencies = append(res.latencies, float64(time.Since(due))/1e6)
		}
	}
}

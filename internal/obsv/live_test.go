// The live-plane integration test: a real supervised fleet campaign
// with the observability plane mounted, scraped concurrently over HTTP
// while it runs. This is the -race gate for the whole read side and the
// exactness check tying the three metric views together: the Prometheus
// scrape, the JSONL export, and the registry itself must agree to the
// last unit.
package obsv_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"contiguitas/internal/core"
	"contiguitas/internal/fleet"
	"contiguitas/internal/obsv"
	"contiguitas/internal/supervise"
	"contiguitas/internal/telemetry"
)

func liveFleetConfig() fleet.Config {
	cfg := fleet.DefaultConfig()
	cfg.Servers = 12
	cfg.MemBytes = 64 << 20
	cfg.TicksMin = 20
	cfg.TicksMax = 60
	cfg.Design = core.DesignLinux
	cfg.Shards = 4
	return cfg
}

// scrape fetches /metrics, lints it, and returns every sample (bucket
// samples keyed with their labels) as name -> value. It returns an
// error instead of failing t so concurrent scraper goroutines can
// report through t.Errorf safely.
func scrape(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	if err := obsv.LintPromText(bytes.NewReader(body)); err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// Histogram bucket samples carry labels; key them by the full
		// name{labels} string so le buckets stay distinct.
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		out[fields[0]] = v
	}
	return out, nil
}

func TestLiveCampaignUnderConcurrentScrapes(t *testing.T) {
	reg := telemetry.NewRegistry()
	// The sampler fixes its column schema at creation while supervise
	// registers its metrics inside Run — pre-register them by name (Run
	// reuses existing registrations) so the JSONL covers them.
	reg.NewCounter("shard_crashes")
	reg.NewCounter("shard_resumes")
	reg.NewCounter("shard_quarantines")
	reg.NewHistogram("shard_restart")
	pub := telemetry.NewPublisher(reg)
	sampler := telemetry.NewSampler(reg, 1<<14)
	board := obsv.NewBoard()
	camp := board.Register("live")
	bus := obsv.NewEventBus()
	ring := telemetry.NewRing(1 << 10)
	ring.SetSink(bus.Sink())

	srv, err := obsv.Start(obsv.Options{Addr: "127.0.0.1:0", Board: board, Bus: bus})
	if err != nil {
		t.Fatal(err)
	}
	srv.SetPublisher(pub)
	base := srv.URL()
	client := &http.Client{Timeout: 5 * time.Second}

	// Concurrent scrapers: each checks lint + counter monotonicity on
	// every sample (all exposed counters only ever go up).
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var scrapes atomic.Uint64
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := map[string]float64{}
			for {
				select {
				case <-stop:
					return
				default:
				}
				cur, err := scrape(client, base)
				if err != nil {
					t.Errorf("concurrent scrape: %v", err)
					return
				}
				for name, v := range cur {
					// _sum/_count/_bucket and plain counters are all
					// monotone here; gauges are snapshot_tick only, which
					// is also monotone in this run.
					if last, ok := prev[name]; ok && v < last {
						t.Errorf("%s went backwards: %g -> %g", name, last, v)
						return
					}
					prev[name] = v
				}
				scrapes.Add(1)
			}
		}()
	}

	// The campaign: supervision metrics land in reg, events in ring,
	// progress on the board. OnEvent runs on the supervisor goroutine —
	// the same goroutine that writes reg — so sampling there is exactly
	// the writer-side boundary the design prescribes.
	var tick atomic.Uint64
	res, err := fleet.RunSupervised(context.Background(), fleet.SupervisedConfig{
		Fleet:       liveFleetConfig(),
		MaxAttempts: 64,
		BackoffBase: time.Microsecond,
		BackoffCap:  time.Millisecond,
		Faults:      fleet.FaultPlan{CrashEveryN: 3},
		Progress:    camp,
		Trace:       ring,
		Metrics:     reg,
		OnEvent: func(ev supervise.Event) {
			n := tick.Add(1)
			sampler.Sample(n)
			pub.Pump(n)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Complete {
		t.Fatalf("campaign incomplete: %s", res.Report)
	}
	if res.Report.Crashes == 0 {
		t.Fatal("fault plan injected nothing — the histogram path went unexercised")
	}
	// Final sample + publish: all three views now describe the same
	// instant.
	final := tick.Add(1)
	sampler.Sample(final)
	pub.Publish(final)

	close(stop)
	wg.Wait()
	if scrapes.Load() == 0 {
		t.Fatal("no scrape completed while the campaign ran")
	}

	// --- View 1: the final Prometheus scrape.
	prom, err := scrape(client, base)
	if err != nil {
		t.Fatal(err)
	}

	// --- View 2: the JSONL export. Contract: base[i] + sum(d[i]) equals
	// the end-of-run counter total.
	var jsonl bytes.Buffer
	if err := telemetry.WriteMetricsJSONL(&jsonl, sampler); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(jsonl.String()), "\n")
	var header struct {
		Counters []string `json:"counters"`
		Base     []uint64 `json:"base"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &header); err != nil {
		t.Fatal(err)
	}
	totals := append([]uint64(nil), header.Base...)
	for _, line := range lines[1:] {
		var row struct {
			D []uint64 `json:"d"`
		}
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatal(err)
		}
		for i, d := range row.D {
			totals[i] += d
		}
	}

	// --- View 3: the registry. All three must agree per counter.
	for i, name := range header.Counters {
		regVal := reg.Counter(name).Value()
		if totals[i] != regVal {
			t.Errorf("JSONL total for %s = %d, registry says %d", name, totals[i], regVal)
		}
		promKey := promMetricName(name)
		pv, ok := prom[promKey]
		if !ok {
			t.Errorf("counter %s missing from final scrape (looked for %s)", name, promKey)
			continue
		}
		if uint64(pv) != regVal {
			t.Errorf("scraped %s = %g, registry says %d", promKey, pv, regVal)
		}
	}

	// Histogram exactness: scraped bucket increments must sum to _count,
	// and _count/_sum must equal the registry histogram.
	h := reg.Histogram("shard_restart")
	if h == nil || h.Count() == 0 {
		t.Fatal("shard_restart histogram empty despite crashes")
	}
	histName := promMetricName("shard_restart")
	if got := prom[histName+"_count"]; uint64(got) != h.Count() {
		t.Errorf("scraped %s_count = %g, registry says %d", histName, got, h.Count())
	}
	if got := prom[histName+"_sum"]; uint64(got) != h.Sum() {
		t.Errorf("scraped %s_sum = %g, registry says %d", histName, got, h.Sum())
	}
	if got := prom[fmt.Sprintf("%s_bucket{le=\"+Inf\"}", histName)]; uint64(got) != h.Count() {
		t.Errorf("+Inf bucket %g, want %d", got, h.Count())
	}

	// Crash accounting ties the report to the metrics plane.
	if got := uint64(prom[promMetricName("shard_crashes")]); got != uint64(res.Report.Crashes) {
		t.Errorf("scraped shard_crashes = %d, report says %d", got, res.Report.Crashes)
	}

	// --- The board reached its terminal state and adds up.
	resp, err := client.Get(base + "/campaigns/0/shards")
	if err != nil {
		t.Fatal(err)
	}
	var bodyJSON struct {
		Campaign obsv.CampaignStatus `json:"campaign"`
		Shards   []obsv.ShardStatus  `json:"shards"`
	}
	err = json.NewDecoder(resp.Body).Decode(&bodyJSON)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	st := bodyJSON.Campaign
	if !st.Ended || !st.Complete || st.Percent != 100 {
		t.Fatalf("board not terminal: %+v", st)
	}
	if st.DoneUnits != uint64(liveFleetConfig().Servers) || st.DoneUnits != st.TotalUnits {
		t.Fatalf("board units %d/%d, want %d/%d", st.DoneUnits, st.TotalUnits,
			liveFleetConfig().Servers, liveFleetConfig().Servers)
	}
	if st.Crashes != res.Report.Crashes || st.Finished != res.Report.Finished {
		t.Fatalf("board %+v disagrees with report %s", st, res.Report)
	}
	var sum uint64
	for _, sh := range bodyJSON.Shards {
		if sh.Status != "done" {
			t.Fatalf("shard %d status %q at campaign end", sh.Shard, sh.Status)
		}
		sum += sh.DoneUnits
	}
	if sum != st.DoneUnits {
		t.Fatalf("shard rows sum to %d units, campaign says %d", sum, st.DoneUnits)
	}

	srv.Close()
}

// promMetricName mirrors the exposition prefix+sanitize rule for test
// lookups.
func promMetricName(name string) string {
	var b strings.Builder
	b.WriteString("contiguitas_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == ':':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

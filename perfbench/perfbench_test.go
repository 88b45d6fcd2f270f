package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"contiguitas/internal/fleet"
	"contiguitas/internal/service"
)

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.9, 3.7}} {
		if got := quantile(xs, c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples is not 0")
	}
}

func TestUnionWithin(t *testing.T) {
	iv := [][2]int64{{0, 10}, {5, 15}, {20, 30}, {40, 50}}
	if got := unionWithin(iv, 2, 45); got != 13+10+5 {
		t.Errorf("unionWithin = %d, want 28", got)
	}
}

// TestResolveSelfTime checks parent assignment by containment (only to
// allowed parent kinds) and self time.
func TestResolveSelfTime(t *testing.T) {
	tr := newTracer()
	root := tr.add("c1", "campaign", 0, 0, 100)
	sub := tr.add("c1", "http.submit", root, 0, 10)
	tr.add("c1", "store.put", 0, 2, 6)
	tr.add("c1", "vfs.fsync", 0, 3, 5)
	tr.add("c1", "service.cell", 0, 20, 90)
	tr.add("c1", "vfs.fsync", 0, 30, 40)
	tr.resolve()
	byName := map[string][]span{}
	for _, s := range tr.spans {
		byName[s.Name] = append(byName[s.Name], s)
	}
	if p := byName["store.put"][0].Parent; p != sub {
		t.Errorf("store.put parent %d, want http.submit %d", p, sub)
	}
	if s := byName["http.submit"][0].Self; s != 6 {
		t.Errorf("http.submit self %d, want 6", s)
	}
	if s := byName["service.cell"][0].Self; s != 60 {
		t.Errorf("service.cell self %d, want 60", s)
	}
}

// TestDecodeResult checks the merged-result walk against the canonical
// bytes the service writes.
func TestDecodeResult(t *testing.T) {
	spec := service.Spec{Servers: 3, Designs: []string{"linux"}, MemsMiB: []uint64{32}, TicksMin: 5, TicksMax: 9, Seed: 7}
	res, err := fleet.RunSupervised(context.Background(), fleet.SupervisedConfig{Fleet: cellConfig(spec, "linux", 32, 0.5)})
	if err != nil {
		t.Fatal(err)
	}
	cell := fleet.CanonicalBytes(res.Study)
	merged := append([]byte(fmt.Sprintf("cell design=linux mem_mib=32 jitter=0.5 bytes=%d\n", len(cell))), cell...)
	cells, err := splitCells(merged)
	if err != nil || len(cells) != 1 {
		t.Fatalf("splitCells: %d cells, %v", len(cells), err)
	}
	ticks, err := decodeStudy(cells[0], spec)
	if err != nil {
		t.Fatal(err)
	}
	var want uint64
	for _, s := range res.Study.Samples {
		want += s.Uptime
	}
	if ticks != want {
		t.Errorf("decoded %d server-ticks, study has %d", ticks, want)
	}
	if _, err := decodeStudy(cells[0][:len(cells[0])-1], spec); err == nil {
		t.Error("truncated study decoded without error")
	}
}

// TestRecordRunWrongDigest checks that a campaign whose downloaded bytes
// do not match the record's ResultDigest, or that failed on the wire,
// counts as failed and makes the run incorrect.
func TestRecordRunWrongDigest(t *testing.T) {
	spec := service.Spec{Servers: 2, Designs: []string{"linux"}, MemsMiB: []uint64{32}, TicksMin: 5, TicksMax: 9, Seed: 3}
	res, err := fleet.RunSupervised(context.Background(), fleet.SupervisedConfig{Fleet: cellConfig(spec, "linux", 32, 0)})
	if err != nil {
		t.Fatal(err)
	}
	cell := fleet.CanonicalBytes(res.Study)
	merged := append([]byte(fmt.Sprintf("cell design=linux mem_mib=32 jitter=0 bytes=%d\n", len(cell))), cell...)
	rec := &service.Campaign{
		ID:           "c1",
		ResultDigest: fmt.Sprintf("%016x", fnvSum(merged)),
		ResultBytes:  int64(len(merged)),
		CellDigests:  []string{fmt.Sprintf("%016x", fnvSum(cell))},
	}
	run := func(rec *service.Campaign, err error) campaignRun {
		r := campaignRun{key: "k", spec: spec, rec: rec, result: merged, err: err}
		if r.err == nil {
			r.err = r.check()
		}
		return r
	}

	b := newBench("test", 2, 0, false, t.TempDir())
	b.latencies = []float64{1}
	if !b.recordRun(run(rec, nil), map[uint64]string{}) {
		t.Fatalf("a matching result failed its checks: %v", b.problems)
	}
	if res := b.result(); !res.Correct || res.Attempted != 1 || res.Failed != 0 {
		t.Fatalf("after a good campaign: %+v", res)
	}

	bad := *rec
	bad.ResultDigest = "0000000000000000"
	if b.recordRun(run(&bad, nil), map[uint64]string{}) {
		t.Fatal("a result whose digest does not match the record passed")
	}
	if b.recordRun(run(nil, fmt.Errorf("submit: HTTP 429")), map[uint64]string{}) {
		t.Fatal("a campaign rejected with 429 passed")
	}
	if res := b.result(); res.Correct || res.Attempted != 3 || res.Failed != 2 {
		t.Errorf("after two failed campaigns: correct=%v attempted=%d failed=%d, want false/3/2", res.Correct, res.Attempted, res.Failed)
	}
}

// TestEmptyWindowIsIncorrect checks that a run whose measured window
// timed nothing does not report a latency of 0 as correct.
func TestEmptyWindowIsIncorrect(t *testing.T) {
	b := newBench("test", 2, 0, false, t.TempDir())
	b.attempted = 4
	if b.result().Correct {
		t.Error("a run with no latency sample is correct")
	}
}

// TestMetricsMatchBenchmarkJSON checks that the metrics a run reports
// are exactly the ones BENCHMARK.json declares, with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside perfbench: %v", err)
	}
	type metric struct{ Name, Unit string }
	var decl struct {
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, perLayer %d", len(decl.PerLayer), len(perLayer))
	}
	for i := 0; i < len(decl.PerLayer) && i < len(perLayer); i++ {
		if d, p := decl.PerLayer[i], perLayer[i]; d.Name != p.name || d.Unit != p.unit {
			t.Errorf("per_layer[%d]: BENCHMARK.json %s (%s), perLayer %s (%s)", i, d.Name, d.Unit, p.name, p.unit)
		}
	}

	b := newBench("test", 2, 0, false, t.TempDir())
	got := b.result().Metrics
	if len(got) != len(decl.EndToEnd) {
		t.Errorf("an untraced run reports %d metrics, BENCHMARK.json declares %d", len(got), len(decl.EndToEnd))
	}
	for _, d := range decl.EndToEnd {
		if m, ok := got[d.Name]; !ok || m.Unit != d.Unit {
			t.Errorf("end_to_end %s (%s): run reports %+v", d.Name, d.Unit, m)
		}
	}
}

#!/usr/bin/env bash
# Hot-path benchmark smoke: runs the simulator's key benchmarks —
# warm/cold physical-memory scans, the Figure 4 fleet study, the
# cold/warm result-cache campaign pair (plus a Contiguitas cold twin),
# LIFO and address-ordered buddy alloc/free, a workload tick, and the
# covering-head lookup — and prints go test's ns/op, B/op and
# allocs/op lines. Measured, repeated numbers come from perfbench/.
#
# Usage: scripts/bench.sh
# Env:   BENCHTIME (default 3x), COUNT (default 1)
set -euo pipefail
cd "$(dirname "$0")/.."

pattern='^(BenchmarkFullScan|BenchmarkFullScanCold|BenchmarkFig4ContiguityCDF|BenchmarkFleetCampaignCold|BenchmarkFleetCampaignColdContiguitas|BenchmarkFleetCampaignWarm|BenchmarkBuddyAllocFree4K|BenchmarkBuddyAllocFree4KOrdered|BenchmarkWorkloadTick|BenchmarkAllocHead|BenchmarkTickTelemetryOff|BenchmarkTickTelemetryOn|BenchmarkMetricsExposition|BenchmarkTickScrapeUnderLoad)$'

raw="$(go test -run '^$' -bench "$pattern" -benchmem -benchtime "${BENCHTIME:-3x}" -count "${COUNT:-1}" .)"
printf '%s\n' "$raw"

# A renamed or deleted benchmark makes go test exit 0 with nothing to
# run, which would sail through CI looking green. Require every name in
# the pattern to have produced at least one result line.
missing=0
for name in $(printf '%s' "$pattern" | tr -d '^()$' | tr '|' ' '); do
    if ! printf '%s\n' "$raw" | grep -q "^${name}\b"; then
        echo "bench.sh: benchmark $name matched nothing — renamed or deleted?" >&2
        missing=1
    fi
done
exit "$missing"

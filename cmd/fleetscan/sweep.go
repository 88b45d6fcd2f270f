// The -sweep grid mode: run the Fig. 4/5 CDF pipeline over the
// cross-product of designs × memory sizes × jitter levels, optionally
// through the content-addressed shard result cache (-cache-dir), and
// emit a canonical results file whose bytes depend only on the studies —
// so a warm-cache sweep is verifiably identical to a cold one
// (cmp two -sweep-out files), not just "close".
package main

import (
	"bytes"
	"fmt"

	"contiguitas/internal/cli"
	"contiguitas/internal/fleet"
	"contiguitas/internal/mem"
	"contiguitas/internal/resultcache"
	"contiguitas/internal/service"
	"contiguitas/internal/stats"
	"contiguitas/internal/vfs"
)

// Fixed CDF probe points: the Fig. 4 contiguity thresholds and the
// Fig. 5 unmovable-block thresholds at the four block orders, shared by
// main()'s tables and the canonical sweep file.
var (
	fig4X     = []float64{0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30}
	fig5X     = []float64{0.1, 0.2, 0.3, 0.4, 0.6, 0.8, 1.0}
	figOrders = []int{mem.Order2M, mem.Order4M, mem.Order32M, mem.Order1G}
)

func runSweep(spec service.Spec, out string, cache resultcache.Cache) {
	cells := len(spec.Cells())
	header := fmt.Sprintf("sweep: %d cells (%d designs x %d mems x %d jitters), %d servers each\n",
		cells, len(spec.Designs), len(spec.MemsMiB), len(spec.Jitters), spec.Servers)

	var canon bytes.Buffer
	fmt.Fprintf(&canon, "# fleetscan sweep v1 servers=%d seed=%d shards=%d min=%d max=%d\n",
		spec.Servers, spec.Seed, spec.Shards, spec.TicksMin, spec.TicksMax)
	st := runCampaign(spec, cache, header, func(cell service.Cell, s *fleet.Study) {
		writeCell(&canon, cell, s)
		fmt.Printf("  design=%-12s mem=%5d MiB jitter=%.2f  zero-2MB-contig=%3.0f%%  median-unmov-2MB=%3.0f%%\n",
			cell.Design, cell.MemMiB, cell.Jitter,
			s.NoContigFraction(mem.Order2M)*100,
			s.MedianUnmovBlockFrac(mem.Order2M)*100)
	})
	fmt.Println(cacheLine(st, cache))

	if out != "" {
		// Durable write: a sweep interrupted mid-write must never leave a
		// torn canonical file for a later diff to chase.
		cli.Check(vfs.WriteFileDurable(vfs.Active(), out, canon.Bytes()))
		fmt.Printf("wrote %d cells (%d canonical bytes) to %s\n", cells, canon.Len(), out)
	}
}

// writeCell appends one grid cell to the canonical sweep file: the cell
// coordinates, the FNV digest of the study's full canonical byte
// serialisation (every sample field — the strongest equality check we
// have), and the Fig. 4 / Fig. 5 CDF values at the frozen probe points.
func writeCell(buf *bytes.Buffer, cell service.Cell, s *fleet.Study) {
	fmt.Fprintf(buf, "cell design=%s mem_mib=%d jitter=%g\n", cell.Design, cell.MemMiB, cell.Jitter)
	fmt.Fprintf(buf, "study samples=%d digest=%016x\n", len(s.Samples), fleet.CanonicalDigest(s))
	for _, fig := range []struct {
		name string
		xs   []float64
		cdf  func(order int) *stats.CDF
	}{{"fig4", fig4X, s.ContigCDF}, {"fig5", fig5X, s.UnmovCDF}} {
		for _, o := range figOrders {
			fmt.Fprintf(buf, "%s order=%d", fig.name, o)
			for _, x := range fig.xs {
				fmt.Fprintf(buf, " %.6f", fig.cdf(o).At(x))
			}
			fmt.Fprintln(buf)
		}
	}
}

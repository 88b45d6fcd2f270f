package fleet

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"contiguitas/internal/core"
	"contiguitas/internal/snapshot"
	"contiguitas/internal/workload"
)

// oraclePath is the checked-in frozen-behaviour oracle: values recorded
// from a known-good tree, so drift is caught against a fixed reference
// rather than against another run of the same tree.
const oraclePath = "testdata/oracle.golden"

// oracleTable recomputes the oracle, one line per value, each keyed by
// the format version it belongs to:
//
//   - the kernel state hash after 100 ticks of every workload profile
//     on a 256 MiB machine per design (ctgsnap=snapshot.Version);
//   - the canonical digest of one small fixed study per design
//     (cache_schema=CacheSchemaVersion).
func oracleTable() string {
	designs := []core.Design{core.DesignLinux, core.DesignContiguitas}
	var b strings.Builder
	for _, d := range designs {
		for _, p := range workload.Profiles() {
			mc := core.DefaultMachineConfig(d)
			mc.MemBytes = 256 << 20
			m := core.NewMachine(mc)
			m.Attach(p, 2).Run(100)
			fmt.Fprintf(&b, "ctgsnap=%d state-hash %s %s %016x\n", snapshot.Version,
				oracleName(d.String()), oracleName(p.Name), m.K.StateHash())
		}
	}
	for _, d := range designs {
		cfg := DefaultConfig()
		cfg.Servers = 8
		cfg.MemBytes = 128 << 20
		cfg.Design = d
		cfg.TicksMin, cfg.TicksMax = 20, 60
		fmt.Fprintf(&b, "cache_schema=%d canonical-digest %s %016x\n", CacheSchemaVersion,
			oracleName(d.String()), CanonicalDigest(Run(cfg)))
	}
	return b.String()
}

func oracleName(s string) string { return strings.ToLower(strings.ReplaceAll(s, " ", "")) }

// TestFrozenOracle fails on any drift from the checked-in oracle. A
// drift is accepted only by re-recording the golden file and, in the
// same change, bumping the version its lines are keyed by:
// snapshot.Version for state hashes, CacheSchemaVersion for study
// digests (so warm caches and healed stores reject old-model results).
func TestFrozenOracle(t *testing.T) {
	raw, err := os.ReadFile(oraclePath)
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for _, line := range strings.SplitAfter(string(raw), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			want.WriteString(line)
		}
	}
	if got := oracleTable(); got != want.String() {
		t.Fatalf("behaviour drifted from %s; recomputed table:\n%s\n"+
			"To accept the drift, re-record %s with this table and bump "+
			"snapshot.Version (state-hash lines) or fleet.CacheSchemaVersion "+
			"(canonical-digest lines) in the same change.",
			oraclePath, got, oraclePath)
	}
}

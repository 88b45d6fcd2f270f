package main

import (
	_ "embed"
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// pinned holds, per workload, the output identities (result digests,
// cell digests, figure headline values) observed at the default seed.
//
//go:embed pinned.json
var pinnedJSON []byte

// recordedCounts holds, per workload, the deterministic counts observed
// by the traced run at the default seed.
//
//go:embed counts.json
var countsJSON []byte

var (
	pinned         map[string]map[string]string
	recordedCounts map[string]map[string]uint64
)

func init() {
	if err := json.Unmarshal(pinnedJSON, &pinned); err != nil {
		panic("perfbench: pinned.json: " + err.Error())
	}
	if err := json.Unmarshal(countsJSON, &recordedCounts); err != nil {
		panic("perfbench: counts.json: " + err.Error())
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// hostMeta describes the host and build a run was measured on: one
// schema for every run, so results from different machines compare.
func hostMeta(stateDir string) map[string]any {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"schema":     "perfbench-run-v1",
		"commit":     commit,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"state_fs":   fsType(stateDir),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir: fsync cost, and so every
// durable-write metric, depends on it.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x2FC12FC1:
		return "zfs"
	}
	return "0x" + strconv.FormatUint(uint64(st.Type), 16)
}

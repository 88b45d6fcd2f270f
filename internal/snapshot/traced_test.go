package snapshot

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"contiguitas/internal/kernel"
)

// TestTracedResumeEquivalence: for both kernel designs, an uninterrupted
// traced run and a run stopped at tick j then resumed to the same end
// land on the same state and chain hashes, write byte-identical
// checkpoint files, and hand every tick to the callbacks exactly once.
func TestTracedResumeEquivalence(t *testing.T) {
	const end, j, every = 60, 40, 20
	for _, mode := range []kernel.Mode{kernel.ModeLinux, kernel.ModeContiguitas} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := kernel.DefaultConfig(mode)
			cfg.MemBytes = 128 << 20
			cfg.InitialUnmovableBytes = 16 << 20
			cfg.MinUnmovableBytes = 4 << 20
			cfg.MaxUnmovableBytes = 64 << 20
			cfg.HWMover = kernel.NewAnalyticMover()
			cfg.Seed = 5
			var starts, ticks []uint64
			run := func(path string, to uint64, resume *Envelope) *Envelope {
				t.Helper()
				tr := Traced{
					Config: cfg, Profile: propProfile(), Seed: 6, Ticks: to,
					Every: every, Path: path, Resume: resume,
					Start: func(_ *kernel.Kernel, tick uint64) { starts = append(starts, tick) },
					Tick:  func(_ *kernel.Kernel, tick uint64) { ticks = append(ticks, tick) },
				}
				_, last, err := tr.Run()
				if err != nil {
					t.Fatal(err)
				}
				return last
			}

			dir := t.TempDir()
			full, part := filepath.Join(dir, "full.snap"), filepath.Join(dir, "part.snap")
			want := run(full, end, nil)
			wantTicks := ticks
			starts, ticks = nil, nil
			run(part, j, nil)
			e, err := Read(part)
			if err != nil {
				t.Fatal(err)
			}
			got := run(part, end, e)

			if got.Seq != want.Seq || got.StateHash != want.StateHash || got.ChainHash != want.ChainHash {
				t.Fatalf("resumed seq=%d state=%016x chain=%016x, uninterrupted seq=%d state=%016x chain=%016x",
					got.Seq, got.StateHash, got.ChainHash, want.Seq, want.StateHash, want.ChainHash)
			}
			a, err := os.ReadFile(full)
			if err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(part)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatal("resumed checkpoint bytes differ from the uninterrupted run's")
			}
			if !slices.Equal(starts, []uint64{0, j}) || !slices.Equal(ticks, wantTicks) {
				t.Fatalf("callbacks: starts %v, ticks %v (want %v)", starts, ticks, wantTicks)
			}
		})
	}
}

package snapshot

import (
	"bytes"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"contiguitas/internal/envelope"
)

func shardCkpt(campaign uint64, shard int, seq, done uint64, payload []byte, prev uint64) *ShardCheckpoint {
	c := &ShardCheckpoint{Campaign: campaign, Shard: shard, Seq: seq, Done: done, Payload: payload}
	c.Seal(prev)
	return c
}

func TestShardCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shard-000.ctgshrd")
	c1 := shardCkpt(42, 0, 1, 3, []byte("three servers"), 0)
	if err := WriteShard(path, c1); err != nil {
		t.Fatal(err)
	}
	got, err := ReadShard(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Campaign != 42 || got.Seq != 1 || got.Done != 3 || string(got.Payload) != "three servers" {
		t.Fatalf("round trip mismatch: %+v", got)
	}

	// The chain links: checkpoint 2 seals over checkpoint 1's chain, and
	// the recomputation must notice a severed link.
	c2 := shardCkpt(42, 0, 2, 6, []byte("six servers"), c1.ChainHash)
	if c2.PrevChainHash != c1.ChainHash {
		t.Fatalf("chain not linked: prev %016x, want %016x", c2.PrevChainHash, c1.ChainHash)
	}
	if c2.ChainHash == c1.ChainHash {
		t.Fatal("chain did not advance")
	}
}

func TestShardCheckpointCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shard.ctgshrd")

	c := shardCkpt(1, 0, 1, 2, []byte("payload"), 0)
	c.Payload = []byte("pAyload") // bit flip after sealing
	if err := WriteShard(path, c); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadShard(path); !errors.Is(err, ErrShardCheckpoint) {
		t.Fatalf("payload corruption -> %v, want ErrShardCheckpoint", err)
	}

	c = shardCkpt(1, 0, 1, 2, []byte("payload"), 0)
	c.Done = 99 // identity edit after sealing breaks the chain recomputation
	if err := WriteShard(path, c); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadShard(path); !errors.Is(err, ErrShardCheckpoint) {
		t.Fatalf("field edit -> %v, want ErrShardCheckpoint", err)
	}

	if _, err := ReadShard(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing file read succeeded")
	}
}

func sealedManifest(campaign uint64, shards int) *Manifest {
	m := &Manifest{Campaign: campaign, Shards: make([]ManifestShard, shards)}
	for i := range m.Shards {
		m.Shards[i] = ManifestShard{Shard: i, Units: 10, Done: uint64(i), Seq: uint64(i), Chain: uint64(1000 + i), Attempts: uint64(1 + i)}
	}
	return m
}

// spliceBody replaces the gob body of the sealed file at path with v's
// encoding while keeping the original header — an edit made without
// resealing, which the envelope must catch.
func spliceBody(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(v); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data[:envelope.HeaderSize:envelope.HeaderSize], body.Bytes()...), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.ctgmani")
	m := sealedManifest(7, 3)
	if err := WriteManifest(path, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Campaign != 7 || len(got.Shards) != 3 || got.Shards[2].Chain != 1002 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestManifestTamperDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.ctgmani")
	tamper := []struct {
		name string
		edit func(m *Manifest)
	}{
		{"flipped chain digest", func(m *Manifest) { m.Shards[1].Chain ^= 1 }},
		{"rolled-back attempt count", func(m *Manifest) { m.Shards[1].Attempts-- }},
		{"rolled-back progress", func(m *Manifest) { m.Shards[2].Done = 0; m.Shards[2].Seq = 0 }},
		{"status edit", func(m *Manifest) { m.Shards[0].Status = ShardDone }},
		{"campaign swap", func(m *Manifest) { m.Campaign++ }},
	}
	for _, tc := range tamper {
		m := sealedManifest(7, 3)
		if err := WriteManifest(path, m); err != nil {
			t.Fatal(err)
		}
		tc.edit(m)
		spliceBody(t, path, m) // the sealed header no longer covers the edit
		_, err := ReadManifest(path)
		if !errors.Is(err, ErrManifestTamper) || !errors.Is(err, envelope.ErrCorrupt) {
			t.Fatalf("%s -> %v, want ErrManifestTamper", tc.name, err)
		}
	}

	// Shard records must be indexed by position even when resealed.
	m := sealedManifest(7, 3)
	m.Shards[0].Shard = 2
	if err := WriteManifest(path, m); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(path); !errors.Is(err, ErrManifestTamper) {
		t.Fatalf("record index swap -> want ErrManifestTamper")
	}
}

func TestVerifyShardAgainstManifest(t *testing.T) {
	m := &Manifest{Campaign: 9, Shards: make([]ManifestShard, 2)}
	ck := shardCkpt(9, 1, 3, 5, []byte("p"), 77)
	m.Shards[0] = ManifestShard{Shard: 0}
	m.Shards[1] = ManifestShard{Shard: 1, Units: 8, Done: 5, Seq: 3, Chain: ck.ChainHash}

	if err := VerifyShardAgainstManifest(m, ck); err != nil {
		t.Fatalf("agreeing checkpoint rejected: %v", err)
	}

	wrongCampaign := shardCkpt(10, 1, 3, 5, []byte("p"), 77)
	if err := VerifyShardAgainstManifest(m, wrongCampaign); !errors.Is(err, ErrCampaignMismatch) {
		t.Fatalf("campaign mismatch -> %v, want ErrCampaignMismatch", err)
	}

	stale := shardCkpt(9, 1, 2, 4, []byte("old"), 0)
	if err := VerifyShardAgainstManifest(m, stale); !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("stale checkpoint -> %v, want ErrShardMismatch", err)
	}

	outOfRange := shardCkpt(9, 5, 1, 1, []byte("p"), 0)
	if err := VerifyShardAgainstManifest(m, outOfRange); !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("out-of-range shard -> %v, want ErrShardMismatch", err)
	}
}

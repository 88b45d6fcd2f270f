// Campaign manifests and per-shard checkpoints: the on-disk state of a
// supervised sharded campaign (internal/supervise driving internal/fleet).
//
// A campaign directory holds one CTGMANI manifest plus one CTGSHRD
// checkpoint file per shard. Both are gob bodies in the sealed envelope
// (internal/envelope), written atomically like CTGSNAP; shard
// checkpoints are hash-chained (chain_n = mix(chain_{n-1}, payload
// digest)), and every way a file can lie has a typed sentinel.
//
// Trust model on resume, mirroring the snapshot rules:
//
//   - a shard checkpoint must open as a CTGSHRD envelope and carry the
//     campaign fingerprint, an intact payload digest, and a chain value
//     that recomputes from its fields (ErrShardCheckpoint otherwise);
//   - the manifest must open as a CTGMANI envelope — flipping a chain
//     value, rolling back an attempt count, or editing a status byte
//     fails the envelope digest before any shard state is trusted
//     (ErrManifestTamper);
//   - manifest and shard checkpoint must agree on (seq, chain, done) —
//     a stale or swapped checkpoint file is rejected (ErrShardMismatch);
//   - the campaign fingerprint must match the resuming configuration
//     (ErrCampaignMismatch).
package snapshot

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"

	"contiguitas/internal/vfs"
)

// Magics and versions of the campaign formats. Version 2 moved both
// onto the sealed envelope, dropping the Magic/Version body fields and
// the manifest self-digest. ShardVersion 3 marks the fleet's sample
// payload switching from per-order maps to arrays, whose gob bytes are
// deterministic.
const (
	ShardMagic      = "CTGSHRD"
	ManifestMagic   = "CTGMANI"
	ShardVersion    = 3
	ManifestVersion = 2
)

// Typed campaign decode/resume failures.
var (
	// ErrManifestTamper reports a manifest that fails its envelope or
	// its shard indexing — corruption or tampering.
	ErrManifestTamper = errors.New("snapshot: manifest integrity check failed")
	// ErrShardCheckpoint reports a shard checkpoint that fails its
	// envelope, or whose payload digest or chain value does not
	// recompute from its contents.
	ErrShardCheckpoint = errors.New("snapshot: shard checkpoint corrupt")
	// ErrShardMismatch reports a shard checkpoint that is internally
	// consistent but disagrees with the manifest record for its shard —
	// a stale or swapped file.
	ErrShardMismatch = errors.New("snapshot: shard checkpoint does not match manifest")
	// ErrCampaignMismatch reports campaign state written by a different
	// campaign configuration than the one resuming it.
	ErrCampaignMismatch = errors.New("snapshot: campaign fingerprint mismatch")
	// ErrNoManifest reports a resume target with no usable campaign
	// manifest: the file is missing or empty. Distinct from
	// ErrManifestTamper (a manifest exists but lies) so callers can
	// diagnose "not a campaign state directory" — a usage error — apart
	// from corruption.
	ErrNoManifest = errors.New("snapshot: campaign manifest missing or empty")
)

// ShardCheckpoint is one shard's durable progress record. Payload is
// owner-defined (the fleet stores its gob-encoded samples); the
// checkpoint layer sees only bytes and digests them.
type ShardCheckpoint struct {
	// Campaign fingerprints the campaign configuration (FNV over the
	// config fields); checkpoints never resume across configurations.
	Campaign uint64
	Shard    int
	// Seq numbers this shard's checkpoints (1-based); Done counts the
	// work units (servers) completed at the quiesce point.
	Seq  uint64
	Done uint64
	// PayloadHash digests Payload; PrevChainHash/ChainHash hash-chain
	// the shard's checkpoint history exactly like Envelope does.
	PayloadHash   uint64
	PrevChainHash uint64
	ChainHash     uint64
	Payload       []byte
}

// shardMix folds a shard checkpoint's identity and payload digest into
// the running chain, binding shard index, sequence, and progress — not
// just the payload bytes — into every link.
func (c *ShardCheckpoint) shardMix() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range []uint64{c.PrevChainHash, c.Campaign, uint64(c.Shard), c.Seq, c.Done, c.PayloadHash} {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// Seal fills the digest fields from the payload and the previous chain
// value, returning the new chain value.
func (c *ShardCheckpoint) Seal(prevChain uint64) uint64 {
	h := fnv.New64a()
	h.Write(c.Payload)
	c.PayloadHash = h.Sum64()
	c.PrevChainHash = prevChain
	c.ChainHash = c.shardMix()
	return c.ChainHash
}

// WriteShard writes the checkpoint to path as a sealed CTGSHRD file,
// atomically and durably.
func WriteShard(path string, c *ShardCheckpoint) error {
	return writeSealed(path, ShardMagic, ShardVersion, c)
}

// ReadShard opens and verifies the shard checkpoint at path: the
// envelope, the payload digest, and the chain recomputation.
func ReadShard(path string) (*ShardCheckpoint, error) {
	c := &ShardCheckpoint{}
	if err := readSealed(path, ShardMagic, ShardVersion, ErrShardCheckpoint, c); err != nil {
		return nil, err
	}
	h := fnv.New64a()
	h.Write(c.Payload)
	if got := h.Sum64(); got != c.PayloadHash {
		return nil, fmt.Errorf("%w: payload digest %016x, recorded %016x in %s",
			ErrShardCheckpoint, got, c.PayloadHash, path)
	}
	if got := c.shardMix(); got != c.ChainHash {
		return nil, fmt.Errorf("%w: recomputed chain %016x, recorded %016x in %s",
			ErrShardCheckpoint, got, c.ChainHash, path)
	}
	return c, nil
}

// ShardStatus is a manifest record's lifecycle state.
type ShardStatus uint8

const (
	// ShardPending: not finished; Done units are checkpointed.
	ShardPending ShardStatus = iota
	// ShardDone: all units finished and checkpointed.
	ShardDone
	// ShardQuarantined: the supervisor gave up on this shard.
	ShardQuarantined
)

// ManifestShard is one shard's manifest record: where its checkpoint
// chain currently ends and how hard it has been to get there.
type ManifestShard struct {
	Shard int
	// Units is the shard's total work size; Done of them are completed
	// at checkpoint Seq whose chain digest is Chain (all zero before the
	// first checkpoint).
	Units uint64
	Done  uint64
	Seq   uint64
	Chain uint64
	// Attempts counts attempts started across the whole campaign,
	// surviving process restarts.
	Attempts uint64
	Status   ShardStatus
}

// Manifest is the campaign's durable index: one record per shard.
type Manifest struct {
	Campaign uint64
	Shards   []ManifestShard
}

// WriteManifest writes the manifest to path as a sealed CTGMANI file,
// atomically and durably.
func WriteManifest(path string, m *Manifest) error {
	return writeSealed(path, ManifestMagic, ManifestVersion, m)
}

// ReadManifest opens and verifies the manifest at path. Any byte edit —
// a flipped chain digest, a rolled-back attempt count, a changed status
// — fails the envelope and is rejected with ErrManifestTamper.
func ReadManifest(path string) (*Manifest, error) {
	switch fi, err := vfs.Active().Stat(path); {
	case errors.Is(err, fs.ErrNotExist):
		// Keep the fs sentinel in the chain so callers probing for "any
		// state at all" via fs.ErrNotExist still work.
		return nil, fmt.Errorf("%w: %s: %w", ErrNoManifest, path, err)
	case err != nil:
		return nil, err
	case fi.Size() == 0:
		return nil, fmt.Errorf("%w: %s is empty", ErrNoManifest, path)
	}
	m := &Manifest{}
	if err := readSealed(path, ManifestMagic, ManifestVersion, ErrManifestTamper, m); err != nil {
		return nil, err
	}
	for i, s := range m.Shards {
		if s.Shard != i {
			return nil, fmt.Errorf("%w: record %d claims shard %d in %s", ErrManifestTamper, i, s.Shard, path)
		}
	}
	return m, nil
}

// VerifyShardAgainstManifest cross-checks an intact shard checkpoint
// against the manifest record for its shard: campaign fingerprints and
// the (seq, chain, done) triple must agree. This is the resume-time
// "state hash versus manifest" gate — a checkpoint file that is valid
// but stale (or copied from another shard) is refused.
func VerifyShardAgainstManifest(m *Manifest, c *ShardCheckpoint) error {
	if c.Campaign != m.Campaign {
		return fmt.Errorf("%w: shard %d checkpoint campaign %016x, manifest %016x",
			ErrCampaignMismatch, c.Shard, c.Campaign, m.Campaign)
	}
	if c.Shard < 0 || c.Shard >= len(m.Shards) {
		return fmt.Errorf("%w: shard %d out of range (%d shards)", ErrShardMismatch, c.Shard, len(m.Shards))
	}
	rec := m.Shards[c.Shard]
	if rec.Seq != c.Seq || rec.Chain != c.ChainHash || rec.Done != c.Done {
		return fmt.Errorf("%w: shard %d checkpoint (seq %d chain %016x done %d), manifest (seq %d chain %016x done %d)",
			ErrShardMismatch, c.Shard, c.Seq, c.ChainHash, c.Done, rec.Seq, rec.Chain, rec.Done)
	}
	return nil
}

// Package snapshot is the versioned, crash-consistent checkpoint
// envelope for the full simulator: kernel state (internal/kernel),
// workload runner state (internal/workload), and fault-injector state
// (internal/fault), bound together with a canonical state hash and a
// per-checkpoint chain digest.
//
// Crash consistency. A checkpoint is gob-encoded, sealed by
// internal/envelope and written with vfs.WriteFileDurable, so the file
// at the checkpoint path is always either absent, the previous complete
// checkpoint, or the new complete checkpoint — never a torn write.
// Decoding verifies the envelope, then the state hash (recomputed from
// the decoded machine state) and the chain digest (recomputed from
// PrevChainHash and the state hash); any mismatch — truncation,
// corruption, or a hand-edited field — is rejected with a typed error.
//
// Hash-chain semantics. Each checkpoint's StateHash is the canonical
// digest of the full machine (kernel, runner and injector layers; see
// HashMachine). ChainHash links checkpoints:
//
//	chain_0 = mix(0, stateHash_0)
//	chain_n = mix(chain_{n-1}, stateHash_n)
//
// so two runs that produce the same chain value at checkpoint n agree
// on every checkpointed state up to n, not just the last one — the
// property the kill-and-resume equivalence tests lean on.
package snapshot

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/fnv"

	"contiguitas/internal/envelope"
	"contiguitas/internal/fault"
	"contiguitas/internal/kernel"
	"contiguitas/internal/vfs"
	"contiguitas/internal/workload"
)

// Magic identifies a contiguitas snapshot file; Version is the format
// revision — decoding any other version is refused.
//
// Version history:
//
//	1 — initial format.
//	2 — pressure-ladder state: kernel HasPressure fingerprint +
//	    PressureState (gate, gate PSI tracker, escalation profile, OOM
//	    history), runner OOMBackoffUntil/OOMKillsTaken, and the nine
//	    pressure counters in the kernel counter block.
//	3 — sealed-envelope framing (internal/envelope); the Magic and
//	    Version fields left the gob body.
//	4 — byte-deterministic bodies: the scan witness's per-order
//	    counters are arrays instead of maps, and the flIdx witness is
//	    zero outside free heads.
//	5 — state identity is the digest of the gob value bytes
//	    (envelope.GobDigest) instead of hand-written field walkers;
//	    every StateHash and ChainHash changed, the body layout did not.
//	6 — address-ordered free lists (PolicyLowestPFN/HighestPFN) are
//	    serialized in ascending PFN order instead of a binary heap's
//	    array layout, and their heads carry flIdx 0; Contiguitas state
//	    hashes changed, Linux ones (LIFO lists only) did not.
const (
	Magic   = "CTGSNAP"
	Version = 6
)

// Typed decode failures. Envelope failures surface as ErrBadMagic,
// ErrBadVersion, or ErrHashMismatch, each also wrapping
// envelope.ErrCorrupt.
var (
	// ErrBadMagic reports a file that is not a contiguitas snapshot.
	ErrBadMagic = errors.New("snapshot: bad magic")
	// ErrBadVersion reports an unsupported format revision.
	ErrBadVersion = errors.New("snapshot: unsupported version")
	// ErrHashMismatch reports a snapshot whose recorded state hash or
	// chain digest disagrees with the decoded state — corruption or
	// tampering.
	ErrHashMismatch = errors.New("snapshot: state/chain hash mismatch")
)

// Machine bundles the three state layers of one checkpoint. Runner and
// Faults are nil for kernel-only and faultless runs respectively.
type Machine struct {
	Kernel *kernel.State
	Runner *workload.RunnerState
	Faults *fault.InjectorState
}

// Envelope is the CTGSNAP payload.
type Envelope struct {
	// Seq numbers checkpoints within a run (0-based); Tick is the
	// virtual time the machine was quiesced at.
	Seq  uint64
	Tick uint64
	// StateHash is the canonical digest of Machine; PrevChainHash and
	// ChainHash are the chain links (see the package comment).
	StateHash     uint64
	PrevChainHash uint64
	ChainHash     uint64
	Machine       Machine
}

// mix folds a state hash into the running chain digest.
func mix(chain, stateHash uint64) uint64 {
	h := fnv.New64a()
	var buf [16]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(chain >> (8 * i))
		buf[8+i] = byte(stateHash >> (8 * i))
	}
	h.Write(buf[:])
	return h.Sum64()
}

// HashMachine computes the canonical digest of a full machine state:
// the FNV-1a of the machine's gob value bytes (envelope.GobDigest), the
// bytes a CTGSNAP payload carries for it. A nil Runner or Faults layer
// encodes differently from an empty one, so a faultless checkpoint and
// a faulted one can never collide by omission.
func HashMachine(m *Machine) uint64 {
	h, err := envelope.GobDigest(m)
	if err != nil {
		panic("snapshot: invariant violation: " + err.Error())
	}
	return h
}

// Seal fills an envelope's hash fields from its machine state and the
// previous chain value, returning the new chain value.
func (e *Envelope) Seal(prevChain uint64) uint64 {
	e.StateHash = HashMachine(&e.Machine)
	e.PrevChainHash = prevChain
	e.ChainHash = mix(prevChain, e.StateHash)
	return e.ChainHash
}

// Write seals the envelope and writes it to path atomically and durably
// (see vfs.WriteDurable).
func Write(path string, e *Envelope) error {
	return writeSealed(path, Magic, Version, e)
}

// Decode verifies and decodes a sealed CTGSNAP file: the envelope
// first, then both hash fields against the decoded state. Arbitrary
// bytes are rejected with an error, never a panic — the fuzz target for
// the decode path leans on this contract.
func Decode(data []byte) (*Envelope, error) {
	_, payload, err := envelope.Open(data, Magic, Version)
	switch {
	case errors.Is(err, envelope.ErrBadMagic):
		return nil, fmt.Errorf("%w: %w", ErrBadMagic, err)
	case errors.Is(err, envelope.ErrBadVersion):
		return nil, fmt.Errorf("%w: %w", ErrBadVersion, err)
	case err != nil:
		return nil, fmt.Errorf("%w: %w", ErrHashMismatch, err)
	}
	e := &Envelope{}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(e); err != nil {
		return nil, fmt.Errorf("snapshot: decode: %w", err)
	}
	if e.Machine.Kernel == nil {
		return nil, errors.New("snapshot: envelope carries no kernel state")
	}
	if got := HashMachine(&e.Machine); got != e.StateHash {
		return nil, fmt.Errorf("%w: recomputed state hash %016x, recorded %016x",
			ErrHashMismatch, got, e.StateHash)
	}
	if got := mix(e.PrevChainHash, e.StateHash); got != e.ChainHash {
		return nil, fmt.Errorf("%w: recomputed chain %016x, recorded %016x",
			ErrHashMismatch, got, e.ChainHash)
	}
	return e, nil
}

// Read decodes and verifies the snapshot at path (see Decode). The read
// goes through the active FS so injected read faults and bit-rot land
// on the verification path that exists to catch them.
func Read(path string) (*Envelope, error) {
	data, err := vfs.Active().ReadFile(path)
	if err != nil {
		return nil, err
	}
	e, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%w in %s", err, path)
	}
	return e, nil
}

// writeSealed gob-encodes v, seals it under magic and version, and
// writes it to path with one durable write.
func writeSealed(path, magic string, version uint32, v any) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return fmt.Errorf("snapshot: encode %s: %w", path, err)
	}
	return vfs.WriteFileDurable(vfs.Active(), path, envelope.Seal(magic, version, 0, 0, buf.Bytes()))
}

// readSealed opens the sealed file at path and gob-decodes its payload
// into v. Envelope and decode failures are wrapped in sentinel; I/O
// errors (fs.ErrNotExist included) pass through unwrapped.
func readSealed(path, magic string, version uint32, sentinel error, v any) error {
	data, err := vfs.Active().ReadFile(path)
	if err != nil {
		return err
	}
	_, payload, err := envelope.Open(data, magic, version)
	if err == nil {
		err = gob.NewDecoder(bytes.NewReader(payload)).Decode(v)
	}
	if err != nil {
		return fmt.Errorf("%w: %w in %s", sentinel, err, path)
	}
	return nil
}

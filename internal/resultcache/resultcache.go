// Package resultcache is a content-addressed store for deterministic
// simulation results. A key is the canonical digest of a computation's
// full input closure (the fleet layer derives it from the result-relevant
// config fields, the shard's stats.ShardSeed stream, the shard span, and
// a cache-schema version); the value is an opaque payload the owner
// serialises. Because the simulator is a pure function of its inputs, a
// hit may replace the whole computation — the BuildKit-LLB idea applied
// to sweep campaigns that revisit configurations.
//
// Trust model. Cached bytes are never trusted on faith:
//
//   - the on-disk backend seals every entry in a CTGCACH envelope
//     (internal/envelope: schema and key in the header), writes it with
//     vfs.WriteFileDurable, and on every Get verifies the envelope and
//     the key binding — a tampered, torn, or swapped file is rejected
//     with ErrCorrupt, never decoded into results;
//   - an entry written under an older cache-schema version (the
//     simulator's generative model changed) is internally intact but
//     semantically stale and is rejected with ErrStaleSchema;
//   - rejection is always recoverable: callers treat it exactly like a
//     miss (recompute, then Put to overwrite the bad entry) and account
//     for it separately (the fleet's cache_rejects counter).
//
// Backends. Dir, one sealed file per key, is the only backend; the
// Cache interface stays so a caller can decorate it (perfbench wraps a
// Dir to time every Get).
//
// Concurrency. Dir is safe for concurrent use. Flight adds singleflight
// deduplication on top: concurrent computations of the same key elect
// one leader, and followers wait for the leader's Put instead of
// simulating the same inputs again.
package resultcache

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sync"
	"time"

	"contiguitas/internal/envelope"
	"contiguitas/internal/vfs"
)

// Magic identifies an on-disk cache entry; FormatVersion is the envelope
// format revision (distinct from the caller's cache-schema version,
// which versions the *meaning* of payloads, not their framing).
// Version 2 moved entries onto the sealed envelope.
const (
	Magic         = "CTGCACH"
	FormatVersion = 2
)

// Typed lookup outcomes. ErrMiss is the only benign one; the other two
// mean an entry existed and was refused.
var (
	// ErrMiss reports that no entry exists for the key.
	ErrMiss = errors.New("resultcache: miss")
	// ErrCorrupt reports an entry whose envelope failed verification —
	// truncation, corruption, tampering, or a file stored under the
	// wrong key. The entry must not be trusted. Envelope failures also
	// wrap envelope.ErrCorrupt.
	ErrCorrupt = errors.New("resultcache: entry corrupt")
	// ErrStaleSchema reports an intact entry written under a different
	// cache-schema version: the simulator's generative model changed, so
	// the payload no longer means what the key promises.
	ErrStaleSchema = errors.New("resultcache: entry schema stale")
)

// IsReject reports whether a Get error is a rejection (a present but
// untrustworthy entry) rather than a plain miss. Callers recompute in
// both cases; rejections are additionally counted as integrity events.
func IsReject(err error) bool {
	return errors.Is(err, ErrCorrupt) || errors.Is(err, ErrStaleSchema)
}

// Cache is a content-addressed payload store. Implementations must be
// safe for concurrent use.
type Cache interface {
	// Get returns the payload stored under key: ErrMiss when absent,
	// ErrCorrupt/ErrStaleSchema when present but refused. The returned
	// slice must be treated as read-only.
	Get(key uint64) ([]byte, error)
	// Put stores payload under key, overwriting any existing entry
	// (including a rejected one — recompute heals the cache in place).
	Put(key uint64, payload []byte) error
}

// Dir is the durable backend: one CTGCACH file per key inside a
// directory, written atomically and verified on every read. Safe for
// concurrent use by any number of processes — atomic renames make
// concurrent Puts last-writer-wins, never torn.
type Dir struct {
	dir    string
	schema uint32
}

// NewDir returns a disk cache rooted at dir, accepting only entries
// written under the given cache-schema version.
func NewDir(dir string, schema uint32) *Dir {
	return &Dir{dir: dir, schema: schema}
}

// Root returns the directory the cache is rooted at.
func (d *Dir) Root() string { return d.dir }

// EntryPath returns the file path an entry for key lives at.
func (d *Dir) EntryPath(key uint64) string {
	return filepath.Join(d.dir, fmt.Sprintf("%016x.ctgcach", key))
}

// Get implements Cache. The read goes through the active FS, so
// injected read faults surface as plain errors and injected bit-rot is
// caught by the envelope digests below.
func (d *Dir) Get(key uint64) ([]byte, error) {
	path := d.EntryPath(key)
	data, err := vfs.Active().ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, ErrMiss
	}
	if err != nil {
		return nil, err
	}
	h, payload, err := envelope.Open(data, Magic, FormatVersion)
	if err != nil {
		return nil, fmt.Errorf("%w: %w in %s", ErrCorrupt, err, path)
	}
	if h.Key != key {
		return nil, fmt.Errorf("%w: entry for key %016x stored under %016x in %s",
			ErrCorrupt, h.Key, key, path)
	}
	if h.Schema != d.schema {
		return nil, fmt.Errorf("%w: entry schema %d, want %d in %s",
			ErrStaleSchema, h.Schema, d.schema, path)
	}
	return payload, nil
}

// Put implements Cache: seal the entry and write it with the full
// durable-write discipline on the active FS — temp file, file fsync,
// rename into place, directory fsync; without the directory fsync a
// power loss after the rename could silently drop the entry (see
// internal/vfs).
func (d *Dir) Put(key uint64, payload []byte) error {
	data := envelope.Seal(Magic, FormatVersion, d.schema, key, payload)
	return vfs.WriteFileDurable(vfs.Active(), d.EntryPath(key), data)
}

// Flight deduplicates concurrent computations of one key: the first
// Join for a key becomes the leader and computes; later Joins become
// followers and wait for the leader's Finish, then re-Get the value the
// leader cached.
//
// Flight is an optimization, never a correctness gate: followers wait
// with a bounded timeout and fall back to computing themselves, so a
// crashed or wedged leader can delay followers but can never deadlock
// them. Leadership is owner-scoped (owner is any comparable value, e.g.
// a campaign pointer): a leader's retry attempt re-Joins as leader
// instead of deadlocking on itself, and Finish only releases entries the
// caller actually leads.
type Flight struct {
	mu    sync.Mutex
	calls map[uint64]*flightCall
}

type flightCall struct {
	owner any
	done  chan struct{}
}

// NewFlight returns an empty dedup group.
func NewFlight() *Flight {
	return &Flight{calls: make(map[uint64]*flightCall)}
}

// Join registers interest in key. leader=true means the caller (or a
// previous attempt of the same owner) owns the computation and must call
// Finish on every exit path. leader=false returns a wait function that
// blocks until the leader finishes or the timeout expires; its return
// reports whether the leader actually finished.
func (f *Flight) Join(key uint64, owner any) (leader bool, wait func(timeout time.Duration) bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.calls[key]
	if !ok {
		f.calls[key] = &flightCall{owner: owner, done: make(chan struct{})}
		return true, nil
	}
	if c.owner == owner {
		return true, nil
	}
	done := c.done
	return false, func(timeout time.Duration) bool {
		if timeout <= 0 {
			<-done
			return true
		}
		t := time.NewTimer(timeout)
		defer t.Stop()
		select {
		case <-done:
			return true
		case <-t.C:
			return false
		}
	}
}

// Finish releases the followers of key. Idempotent, and a no-op unless
// owner is the current leader — so a blanket campaign-end sweep over
// every key an owner may lead is always safe.
func (f *Flight) Finish(key uint64, owner any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.calls[key]; ok && c.owner == owner {
		close(c.done)
		delete(f.calls, key)
	}
}

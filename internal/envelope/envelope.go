// Package envelope is the one sealed-file framing every on-disk format
// in the repository shares: CTGSNAP snapshots, CTGSHRD shard
// checkpoints, CTGMANI campaign manifests, CTGCACH result-cache entries
// and CTGCAMP campaign records. Owners encode their own body as the
// payload; the envelope alone decides how a file is framed and how its
// integrity is verified.
//
// A sealed file is a fixed little-endian header followed by the payload:
//
//	offset size field
//	     0    8 magic, NUL-padded
//	     8    4 format version
//	    12    4 schema (owner-defined, e.g. the result cache's model version)
//	    16    8 key (owner-defined, e.g. the result cache's content address)
//	    24    8 payload length
//	    32    8 FNV-1a digest of the payload
//	    40    8 FNV-1a digest of bytes 0..39 (header self-digest)
//
// Open verifies, in order: the header fits, magic, version, header
// self-digest, payload length (truncation or trailing bytes), payload
// digest. Every failure wraps ErrCorrupt; a wrong magic or version also
// wraps ErrBadMagic or ErrBadVersion. Open never panics on any input.
//
// GobDigest is the matching identity of a gob-encoded value: checkpoint
// state hashes are the digest of the bytes their payload carries.
package envelope

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/fnv"
)

// HeaderSize is the byte length of the sealed header.
const HeaderSize = 48

// The corruption family: every Open failure is ErrCorrupt; the two
// identity failures are distinguishable beneath it.
var (
	ErrCorrupt    = errors.New("envelope: corrupt")
	ErrBadMagic   = fmt.Errorf("%w: bad magic", ErrCorrupt)
	ErrBadVersion = fmt.Errorf("%w: unsupported version", ErrCorrupt)
)

// Header holds the owner-defined fields of a verified header; magic
// and version are the ones Open was asked for.
type Header struct {
	Schema uint32
	Key    uint64
}

func digest(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

func magicBytes(magic string) (m [8]byte) {
	if len(magic) > len(m) {
		panic(fmt.Sprintf("envelope: magic %q longer than %d bytes", magic, len(m)))
	}
	copy(m[:], magic)
	return m
}

// Seal frames payload under the given identity and returns the sealed
// file bytes.
func Seal(magic string, version, schema uint32, key uint64, payload []byte) []byte {
	le := binary.LittleEndian
	b := make([]byte, HeaderSize, HeaderSize+len(payload))
	m := magicBytes(magic)
	copy(b, m[:])
	le.PutUint32(b[8:], version)
	le.PutUint32(b[12:], schema)
	le.PutUint64(b[16:], key)
	le.PutUint64(b[24:], uint64(len(payload)))
	le.PutUint64(b[32:], digest(payload))
	le.PutUint64(b[40:], digest(b[:40]))
	return append(b, payload...)
}

// Open verifies data as a file sealed under magic and version and
// returns its header and payload (a subslice of data).
func Open(data []byte, magic string, version uint32) (Header, []byte, error) {
	le := binary.LittleEndian
	if len(data) < HeaderSize {
		return Header{}, nil, fmt.Errorf("%w: %d bytes, header needs %d", ErrCorrupt, len(data), HeaderSize)
	}
	if m := magicBytes(magic); !bytes.Equal(data[:8], m[:]) {
		return Header{}, nil, fmt.Errorf("%w %q, want %q", ErrBadMagic, bytes.TrimRight(data[:8], "\x00"), magic)
	}
	if v := le.Uint32(data[8:]); v != version {
		return Header{}, nil, fmt.Errorf("%w %d, support %d", ErrBadVersion, v, version)
	}
	if got, rec := digest(data[:40]), le.Uint64(data[40:]); got != rec {
		return Header{}, nil, fmt.Errorf("%w: header digest %016x, recorded %016x", ErrCorrupt, got, rec)
	}
	payload := data[HeaderSize:]
	if n := le.Uint64(data[24:]); n != uint64(len(payload)) {
		return Header{}, nil, fmt.Errorf("%w: payload is %d bytes, header says %d", ErrCorrupt, len(payload), n)
	}
	if got, rec := digest(payload), le.Uint64(data[32:]); got != rec {
		return Header{}, nil, fmt.Errorf("%w: payload digest %016x, recorded %016x", ErrCorrupt, got, rec)
	}
	return Header{Schema: le.Uint32(data[12:]), Key: le.Uint64(data[16:])}, payload, nil
}

// GobDigest is the FNV-1a digest of v's gob encoding without the type
// descriptors: only the value bytes are hashed. gob numbers types
// process-wide in the order they are first encoded, so the descriptors
// and the value's type id depend on what else the process has encoded;
// the value bytes depend on v alone. v must hold no maps (gob writes
// them in iteration order) and no interfaces (their values carry type
// ids).
func GobDigest(v any) (uint64, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return 0, err
	}
	h := fnv.New64a()
	for b := buf.Bytes(); len(b) > 0; {
		n, rest := gobUint(b)
		msg := rest[:n]
		b = rest[n:]
		// A message opens with its signed type id, sign in the low bit:
		// negative ids define types, positive ones carry the value.
		if id, body := gobUint(msg); id&1 == 0 {
			h.Write(body)
		}
	}
	return h.Sum64(), nil
}

// gobUint splits one gob unsigned integer off the front of b: a byte
// below 0x80 is the value itself, any other is the negated count of the
// big-endian value bytes that follow.
func gobUint(b []byte) (uint64, []byte) {
	if b[0] < 0x80 {
		return uint64(b[0]), b[1:]
	}
	n := int(-int8(b[0]))
	var x uint64
	for _, c := range b[1 : 1+n] {
		x = x<<8 | uint64(c)
	}
	return x, b[1+n:]
}

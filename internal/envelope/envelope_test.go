package envelope_test

import (
	"bytes"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"contiguitas/internal/envelope"
	"contiguitas/internal/kernel"
	"contiguitas/internal/resultcache"
	"contiguitas/internal/service"
	"contiguitas/internal/snapshot"
)

// format is one on-disk format, driven only through its owner's public
// writer and reader.
type format struct {
	magic   string
	version uint32
	// file is a sealed file written by the owner's writer.
	file []byte
	// legacy is a body in the owner's pre-envelope gob layout.
	legacy any
	// read feeds data to the owner's reader and returns its verdict.
	read func(data []byte) error
	// want is the owner sentinel a corruption at byte off must surface.
	want func(off int) error
}

func always(err error) func(int) error { return func(int) error { return err } }

func writeFile(tb testing.TB, path string, data []byte) {
	tb.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		tb.Fatal(err)
	}
}

func readFile(tb testing.TB, path string) []byte {
	tb.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// formats writes one small sealed file of each of the five formats.
func formats(tb testing.TB) []format {
	dir := tb.TempDir()

	cfg := kernel.DefaultConfig(kernel.ModeLinux)
	cfg.MemBytes = 4 << 20
	cfg.InitialUnmovableBytes = 1 << 20
	cfg.MinUnmovableBytes = 1 << 20
	cfg.MaxUnmovableBytes = 2 << 20
	k := kernel.New(cfg)
	snap := &snapshot.Envelope{Tick: k.Tick(), Machine: snapshot.Machine{Kernel: k.ExportState()}}
	snap.Seal(0)
	snapPath := filepath.Join(dir, "chaos.snap")
	if err := snapshot.Write(snapPath, snap); err != nil {
		tb.Fatal(err)
	}

	shardPath := filepath.Join(dir, "shard-000.ctgshrd")
	ck := &snapshot.ShardCheckpoint{Campaign: 9, Seq: 1, Done: 2, Payload: []byte("two servers")}
	ck.Seal(0)
	if err := snapshot.WriteShard(shardPath, ck); err != nil {
		tb.Fatal(err)
	}

	maniPath := filepath.Join(dir, "campaign.ctgmani")
	mani := &snapshot.Manifest{Campaign: 9, Shards: []snapshot.ManifestShard{{Units: 4, Done: 2, Seq: 1, Chain: ck.ChainHash, Attempts: 1}}}
	if err := snapshot.WriteManifest(maniPath, mani); err != nil {
		tb.Fatal(err)
	}

	cache := resultcache.NewDir(filepath.Join(dir, "cache"), 1)
	if err := cache.Put(7, []byte("shard samples")); err != nil {
		tb.Fatal(err)
	}

	disk, err := service.OpenDisk(filepath.Join(dir, "store"))
	if err != nil {
		tb.Fatal(err)
	}
	camp := &service.Campaign{ID: "c0123456789abcdef", Key: "k", State: service.StateDone, Cells: 1}
	if err := disk.Put(camp); err != nil {
		tb.Fatal(err)
	}
	recPath := filepath.Join(disk.StateDir(camp.ID), "record.ctgjob")

	return []format{
		{
			magic: snapshot.Magic, version: snapshot.Version, file: readFile(tb, snapPath),
			legacy: struct {
				Magic                                   string
				Version                                 uint32
				Seq, Tick, StateHash, PrevChain, ChainH uint64
			}{"CTGSNAP", 2, 0, 1, 2, 3, 4},
			read: func(data []byte) error { _, err := snapshot.Decode(data); return err },
			want: func(off int) error {
				switch {
				case off < 8:
					return snapshot.ErrBadMagic
				case off < 12:
					return snapshot.ErrBadVersion
				}
				return snapshot.ErrHashMismatch
			},
		},
		{
			magic: snapshot.ShardMagic, version: snapshot.ShardVersion, file: readFile(tb, shardPath),
			legacy: struct {
				Magic               string
				Version             uint32
				Campaign            uint64
				Shard               int
				Seq, Done, PayloadH uint64
				PrevChain, ChainH   uint64
				Payload             []byte
			}{"CTGSHRD", 1, 9, 0, 1, 2, 3, 4, 5, []byte("p")},
			read: func(data []byte) error {
				writeFile(tb, shardPath, data)
				_, err := snapshot.ReadShard(shardPath)
				return err
			},
			want: always(snapshot.ErrShardCheckpoint),
		},
		{
			magic: snapshot.ManifestMagic, version: snapshot.ManifestVersion, file: readFile(tb, maniPath),
			legacy: struct {
				Magic    string
				Version  uint32
				Campaign uint64
				Shards   []snapshot.ManifestShard
				SelfHash uint64
			}{"CTGMANI", 1, 9, mani.Shards, 1},
			read: func(data []byte) error {
				writeFile(tb, maniPath, data)
				_, err := snapshot.ReadManifest(maniPath)
				return err
			},
			want: always(snapshot.ErrManifestTamper),
		},
		{
			magic: resultcache.Magic, version: resultcache.FormatVersion, file: readFile(tb, cache.EntryPath(7)),
			legacy: struct {
				Magic                string
				Version, Schema      uint32
				Key, PayloadH, SelfH uint64
				Payload              []byte
			}{"CTGCACH", 1, 1, 7, 2, 3, []byte("p")},
			read: func(data []byte) error {
				writeFile(tb, cache.EntryPath(7), data)
				_, err := cache.Get(7)
				return err
			},
			want: always(resultcache.ErrCorrupt),
		},
		{
			magic: service.RecordMagic, version: service.RecordVersion, file: readFile(tb, recPath),
			legacy: struct {
				Magic    string
				Version  uint32
				PayloadH uint64
				Payload  []byte
			}{"CTGCAMP", 1, 2, []byte("p")},
			read: func(data []byte) error {
				writeFile(tb, recPath, data)
				_, err := disk.Get(camp.ID)
				return err
			},
			want: always(service.ErrCorruptRecord),
		},
	}
}

func TestSealOpenRoundTrip(t *testing.T) {
	payload := []byte("payload bytes")
	data := envelope.Seal("CTGTEST", 4, 5, 6, payload)
	if len(data) != envelope.HeaderSize+len(payload) {
		t.Fatalf("sealed %d bytes, want %d", len(data), envelope.HeaderSize+len(payload))
	}
	h, got, err := envelope.Open(data, "CTGTEST", 4)
	if err != nil {
		t.Fatal(err)
	}
	if want := (envelope.Header{Schema: 5, Key: 6}); h != want || !bytes.Equal(got, payload) {
		t.Fatalf("Open = %+v %q, want %+v %q", h, got, want, payload)
	}
	if _, _, err := envelope.Open(data, "CTGOTHR", 4); !errors.Is(err, envelope.ErrBadMagic) {
		t.Fatalf("wrong magic -> %v, want ErrBadMagic", err)
	}
	if _, _, err := envelope.Open(data, "CTGTEST", 3); !errors.Is(err, envelope.ErrBadVersion) {
		t.Fatalf("wrong version -> %v, want ErrBadVersion", err)
	}
	for name, bad := range map[string][]byte{
		"empty":     nil,
		"header":    data[:envelope.HeaderSize-1],
		"truncated": data[:len(data)-1],
		"trailing":  append(append([]byte(nil), data...), 0),
	} {
		if _, _, err := envelope.Open(bad, "CTGTEST", 4); !errors.Is(err, envelope.ErrCorrupt) {
			t.Fatalf("%s -> %v, want ErrCorrupt", name, err)
		}
	}
}

// TestOwnersRejectEveryByteFlip flips every byte of a sealed file of
// each format, plus a truncation and a trailing byte, and requires the
// owner's public reader to refuse each with its own sentinel and with
// envelope.ErrCorrupt beneath it.
func TestOwnersRejectEveryByteFlip(t *testing.T) {
	for _, f := range formats(t) {
		t.Run(f.magic, func(t *testing.T) {
			if err := f.read(f.file); err != nil {
				t.Fatalf("intact file rejected: %v", err)
			}
			check := func(what string, off int, data []byte) {
				err := f.read(data)
				if want := f.want(off); !errors.Is(err, want) || !errors.Is(err, envelope.ErrCorrupt) {
					t.Fatalf("%s: %v, want %v and envelope.ErrCorrupt", what, err, want)
				}
			}
			bad := append([]byte(nil), f.file...)
			for off := range bad {
				bad[off] ^= 0xFF
				check("flip at "+strconv.Itoa(off), off, bad)
				bad[off] ^= 0xFF
			}
			check("truncated", envelope.HeaderSize, f.file[:len(f.file)-1])
			check("trailing byte", envelope.HeaderSize, append(bad, 0))
		})
	}
}

// TestOwnersRejectLegacyFiles: a gob stream in a format's pre-envelope
// layout is a typed reject, never decoded.
func TestOwnersRejectLegacyFiles(t *testing.T) {
	for _, f := range formats(t) {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(f.legacy); err != nil {
			t.Fatal(err)
		}
		err := f.read(buf.Bytes())
		if !errors.Is(err, f.want(0)) || !errors.Is(err, envelope.ErrBadMagic) {
			t.Fatalf("%s legacy file: %v, want %v and envelope.ErrBadMagic", f.magic, err, f.want(0))
		}
	}
}

// FuzzEnvelopeOpen holds Open to its contract for every format's
// identity: it never panics, every rejection is ErrCorrupt, and it
// accepts only bytes that re-Seal to themselves.
// TestGobDigestIgnoresTypeIDs proves GobDigest identifies the value,
// not the process: two same-shaped types get different gob type ids and
// names, so their encodings differ, yet equal values digest equally;
// any field change, a nil pointer made non-nil included, shows.
func TestGobDigestIgnoresTypeIDs(t *testing.T) {
	type innerA struct {
		Xs []uint64
		S  string
	}
	type outerA struct {
		In []innerA
		F  float64
		P  *innerA
	}
	type innerB struct {
		Xs []uint64
		S  string
	}
	type outerB struct {
		In []innerB
		F  float64
		P  *innerB
	}
	a := outerA{In: []innerA{{Xs: []uint64{1, 2}, S: "x"}, {}}, F: 0.5}
	b := outerB{In: []innerB{{Xs: []uint64{1, 2}, S: "x"}, {}}, F: 0.5}
	var ea, eb bytes.Buffer
	if err := gob.NewEncoder(&ea).Encode(a); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(&eb).Encode(b); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ea.Bytes(), eb.Bytes()) {
		t.Fatal("encodings of distinct types are equal; the test proves nothing")
	}
	digest := func(v any) uint64 {
		t.Helper()
		d, err := envelope.GobDigest(v)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	want := digest(a)
	if got := digest(b); got != want {
		t.Fatalf("same value, different type ids: digest %016x, want %016x", got, want)
	}
	a.In[1].Xs = []uint64{0}
	if digest(a) == want {
		t.Fatal("digest ignores a slice element")
	}
	a.In[1].Xs = nil
	a.P = &innerA{}
	if digest(a) == want {
		t.Fatal("digest ignores a nil pointer made non-nil")
	}
}

func FuzzEnvelopeOpen(f *testing.F) {
	fs := formats(f)
	for _, ff := range fs {
		file := ff.file
		f.Add(file)
		f.Add(file[:envelope.HeaderSize])
		f.Add(file[:len(file)/2])
		for _, off := range []int{0, 8, 40, envelope.HeaderSize, len(file) - 1} {
			bad := append([]byte(nil), file...)
			bad[off] ^= 0x40
			f.Add(bad)
		}
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, ff := range fs {
			h, payload, err := envelope.Open(data, ff.magic, ff.version)
			if err != nil {
				if !errors.Is(err, envelope.ErrCorrupt) {
					t.Fatalf("%s: untyped rejection %v", ff.magic, err)
				}
				continue
			}
			if re := envelope.Seal(ff.magic, ff.version, h.Schema, h.Key, payload); !bytes.Equal(re, data) {
				t.Fatalf("%s: accepted bytes do not re-seal to themselves", ff.magic)
			}
		}
	})
}

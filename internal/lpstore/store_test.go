package lpstore

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"livepoints/internal/asn1der"
	"livepoints/internal/livepoint"
)

// synthBlobs builds n deterministic DER octet-string blobs of varied,
// partially compressible content — structurally valid library points
// without the cost of live-point creation.
func synthBlobs(n, approxLen int) [][]byte {
	rng := rand.New(rand.NewSource(0x5EED))
	blobs := make([][]byte, n)
	for i := range blobs {
		size := approxLen/2 + rng.Intn(approxLen)
		payload := make([]byte, size)
		for j := range payload {
			if j%4 == 0 {
				payload[j] = byte(rng.Intn(256)) // incompressible quarter
			} else {
				payload[j] = byte(i) // compressible runs
			}
		}
		b := asn1der.NewBuilder()
		b.OctetString(payload)
		blobs[i] = b.Bytes()
	}
	return blobs
}

func writeTestStore(t *testing.T, blobs [][]byte, shardPoints int, shuffled bool) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "lib.lplib")
	meta := livepoint.Meta{Benchmark: "syn.test", UnitLen: 1000, WarmLen: 2000, Shuffled: shuffled}
	info, err := Write(path, meta, blobs, WriteOpts{ShardPoints: shardPoints})
	if err != nil {
		t.Fatal(err)
	}
	if info.Points != len(blobs) {
		t.Fatalf("info.Points = %d, want %d", info.Points, len(blobs))
	}
	wantShards := (len(blobs) + shardPoints - 1) / shardPoints
	if info.Shards != wantShards {
		t.Fatalf("info.Shards = %d, want %d", info.Shards, wantShards)
	}
	return path
}

// drain reads a source to EOF.
func drain(t *testing.T, src livepoint.Source) [][]byte {
	t.Helper()
	var out [][]byte
	for {
		b, err := src.NextBlob()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
}

func TestWriteOpenRoundTrip(t *testing.T) {
	blobs := synthBlobs(53, 700)
	path := writeTestStore(t, blobs, 8, true)

	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	m := st.Meta()
	if m.Benchmark != "syn.test" || m.Count != 53 || m.UnitLen != 1000 || m.WarmLen != 2000 || !m.Shuffled {
		t.Fatalf("meta did not round-trip: %+v", m)
	}
	if st.NumShards() != 7 {
		t.Fatalf("NumShards = %d, want 7", st.NumShards())
	}

	// Random access returns each blob byte-exactly.
	for i := range blobs {
		got, err := st.PointBlob(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, blobs[i]) {
			t.Fatalf("PointBlob(%d) mismatch", i)
		}
	}

	// Sequential source preserves write order.
	got := drain(t, st.Source())
	if len(got) != len(blobs) {
		t.Fatalf("sequential read %d blobs, want %d", len(got), len(blobs))
	}
	for i := range blobs {
		if !bytes.Equal(got[i], blobs[i]) {
			t.Fatalf("sequential blob %d mismatch", i)
		}
	}

	// Batch access, spanning shard boundaries.
	batch, err := st.Blobs(5, 20)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range batch {
		if !bytes.Equal(b, blobs[5+i]) {
			t.Fatalf("batch blob %d mismatch", i)
		}
	}
	if _, err := st.Blobs(50, 10); err == nil {
		t.Fatal("out-of-range batch should fail")
	}

	// Per-shard sources cover every point exactly once.
	ss, ok := st.Source().(livepoint.ShardedSource)
	if !ok {
		t.Fatal("store source should be sharded")
	}
	var fromShards int
	for s := 0; s < ss.NumShards(); s++ {
		sub, err := ss.OpenShard(s)
		if err != nil {
			t.Fatal(err)
		}
		fromShards += len(drain(t, sub))
		sub.Close()
	}
	if fromShards != len(blobs) {
		t.Fatalf("shard sources yielded %d blobs, want %d", fromShards, len(blobs))
	}
}

// TestShuffleIsIndexOnly checks Shuffle permutes the read order without
// touching a single byte of shard data.
func TestShuffleIsIndexOnly(t *testing.T) {
	blobs := synthBlobs(40, 500)
	path := writeTestStore(t, blobs, 8, false)

	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	dataLen := int64(len(fileMagic)) + st.CompressedBytes()
	st.Close()

	if err := Shuffle(path, 42); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before[:dataLen], after[:dataLen]) {
		t.Fatal("shuffle modified shard data; it must only rewrite the index")
	}

	st, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if !st.Meta().Shuffled {
		t.Fatal("shuffled library not marked shuffled")
	}
	order := st.Order()
	inOrder := true
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			inOrder = false
		}
	}
	if inOrder {
		t.Fatal("shuffle left the order untouched")
	}

	// Multiset preserved: every blob still readable, exactly once.
	got := drain(t, st.Source())
	seen := make(map[int]bool)
	for _, b := range got {
		for i := range blobs {
			if bytes.Equal(b, blobs[i]) {
				if seen[i] {
					t.Fatalf("blob %d appears twice after shuffle", i)
				}
				seen[i] = true
				break
			}
		}
	}
	if len(seen) != len(blobs) {
		t.Fatalf("only %d of %d blobs found after shuffle", len(seen), len(blobs))
	}

	// Same seed, same permutation.
	path2 := writeTestStore(t, blobs, 8, false)
	if err := Shuffle(path2, 42); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(path2)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if !reflect.DeepEqual(st.Order(), st2.Order()) {
		t.Fatal("shuffle is not deterministic by seed")
	}
}

// TestMigratePreservesOrder checks v1→v2 migration yields the same blobs
// in the same read order, so experiment results carry over bit-equal.
func TestMigratePreservesOrder(t *testing.T) {
	blobs := synthBlobs(30, 600)
	dir := t.TempDir()
	v1 := filepath.Join(dir, "v1.lplib")
	v2 := filepath.Join(dir, "v2.lplib")
	meta := livepoint.Meta{Benchmark: "syn.mig", UnitLen: 100, WarmLen: 200, Shuffled: true}
	if _, err := livepoint.WriteLibrary(v1, meta, blobs); err != nil {
		t.Fatal(err)
	}
	info, err := Migrate(v1, v2, WriteOpts{ShardPoints: 7})
	if err != nil {
		t.Fatal(err)
	}
	if info.Points != 30 || info.Shards != 5 {
		t.Fatalf("migrate info %+v", info)
	}

	wantMeta, want, err := livepoint.ReadAllBlobs(v1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(v2)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Meta() != wantMeta {
		t.Fatalf("migrated meta %+v, want %+v", st.Meta(), wantMeta)
	}
	got := drain(t, st.Source())
	if len(got) != len(want) {
		t.Fatalf("migrated store has %d points, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("migrated blob %d differs from v1 read order", i)
		}
	}
}

// TestOpenAnyV1 checks the in-memory migration reader: a v1 file opens as
// a fully functional store, including raw-shard access for serving.
func TestOpenAnyV1(t *testing.T) {
	blobs := synthBlobs(20, 400)
	v1 := filepath.Join(t.TempDir(), "v1.lplib")
	meta := livepoint.Meta{Benchmark: "syn.any", Shuffled: true}
	if _, err := livepoint.WriteLibrary(v1, meta, blobs); err != nil {
		t.Fatal(err)
	}
	st, err := OpenAny(v1)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Count() != 20 || st.NumShards() == 0 {
		t.Fatalf("v1-backed store: count %d, shards %d", st.Count(), st.NumShards())
	}
	for i := range blobs {
		got, err := st.PointBlob(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, blobs[i]) {
			t.Fatalf("PointBlob(%d) mismatch on v1-backed store", i)
		}
	}
	// Raw shard bytes must inflate back to the catenated blobs.
	raw, n, err := st.ShardRaw(0)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Fatal("empty raw shard")
	}
	data, err := st.DecompressShard(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty decompressed shard")
	}
	_ = raw
}

// TestOpenRejectsV1AndGarbage covers the v1-file-opened-as-v2 error path
// and corrupt inputs.
func TestOpenRejectsV1AndGarbage(t *testing.T) {
	dir := t.TempDir()

	v1 := filepath.Join(dir, "v1.lplib")
	if _, err := livepoint.WriteLibrary(v1, livepoint.Meta{Benchmark: "b"}, synthBlobs(3, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(v1); err == nil {
		t.Fatal("Open(v1 file) should fail")
	} else if got := err.Error(); !bytes.Contains([]byte(got), []byte("v1")) {
		t.Fatalf("v1 error should name the format: %v", err)
	}

	junk := filepath.Join(dir, "junk")
	if err := os.WriteFile(junk, []byte("neither format at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(junk); err == nil {
		t.Fatal("Open(garbage) should fail")
	}

	// Truncating the trailer must be detected.
	v2 := writeTestStore(t, synthBlobs(10, 200), 4, false)
	raw, err := os.ReadFile(v2)
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(dir, "trunc.lplib")
	if err := os.WriteFile(trunc, raw[:len(raw)-9], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(trunc); err == nil {
		t.Fatal("Open(truncated v2) should fail")
	}
}

// TestRegisteredOpener checks livepoint.OpenSource transparently opens v2
// files via the registered format opener.
func TestRegisteredOpener(t *testing.T) {
	blobs := synthBlobs(15, 300)
	path := writeTestStore(t, blobs, 4, true)
	src, err := livepoint.OpenSource(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if _, ok := src.(livepoint.ShardedSource); !ok {
		t.Fatal("v2 source should be sharded")
	}
	if got := drain(t, src); len(got) != len(blobs) {
		t.Fatalf("drained %d blobs, want %d", len(got), len(blobs))
	}
}

func TestEmptyLibrary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.lplib")
	if _, err := Write(path, livepoint.Meta{Benchmark: "none"}, nil, WriteOpts{}); err != nil {
		t.Fatal(err)
	}
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Count() != 0 || st.NumShards() != 0 {
		t.Fatalf("empty library: count %d shards %d", st.Count(), st.NumShards())
	}
	if _, err := st.Source().NextBlob(); err != io.EOF {
		t.Fatalf("empty source should EOF, got %v", err)
	}
}

// TestOpenRejectsImpossibleShardTable: shard records are raw integers
// that reach allocations and slicing, so Open must check them against
// the file. The first case is the regression: one flipped bit made a
// 3-point library's first shard claim 1 TiB, and Open accepted it.
func TestOpenRejectsImpossibleShardTable(t *testing.T) {
	path := writeTestStore(t, synthBlobs(3, 100), 1, false)
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	shards, points := st.shards, st.points
	st.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Locate the shard and point tables by their encoded records.
	table := func(n, recLen int, put func(rec []byte, i int)) int {
		enc := make([]byte, n*recLen)
		for i := 0; i < n; i++ {
			put(enc[i*recLen:], i)
		}
		at := bytes.Index(raw, enc)
		if at < 0 || bytes.Index(raw[at+1:], enc) >= 0 {
			t.Fatal("table not found exactly once in the file")
		}
		return at
	}
	shardAt := table(len(shards), shardRecordLen, func(rec []byte, i int) {
		binary.LittleEndian.PutUint64(rec, uint64(shards[i].dataOff))
		binary.LittleEndian.PutUint64(rec[8:], uint64(shards[i].compLen))
		binary.LittleEndian.PutUint64(rec[16:], uint64(shards[i].uncompLen))
		binary.LittleEndian.PutUint32(rec[24:], uint32(shards[i].points))
	})
	pointAt := table(len(points), pointRecordLen, func(rec []byte, i int) {
		binary.LittleEndian.PutUint32(rec, uint32(points[i].shard))
		binary.LittleEndian.PutUint64(rec[4:], uint64(points[i].off))
		binary.LittleEndian.PutUint32(rec[12:], uint32(points[i].len))
	})
	field := func(b []byte, shard, off int) []byte { return b[shardAt+shard*shardRecordLen+off:] }
	add := func(b []byte, d int64) {
		binary.LittleEndian.PutUint64(b, uint64(int64(binary.LittleEndian.Uint64(b))+d))
	}
	const dataOff, compLen, uncompLen = 0, 8, 16

	for _, c := range []struct {
		name, want string
		edit       func(b []byte)
	}{
		{"uncompLen byte 5 flipped", "shard 0 uncompressed length 1099511", func(b []byte) {
			field(b, 0, uncompLen)[5] ^= 1
		}},
		{"first shard over the magic", "shard 0 at file offset 4", func(b []byte) {
			add(field(b, 0, dataOff), -4)
		}},
		{"negative offset", "shard 0 at file offset -", func(b []byte) {
			field(b, 0, dataOff)[7] ^= 0x80
		}},
		{"gap between shards", "shard 1 at file offset", func(b []byte) {
			add(field(b, 1, dataOff), 1)
		}},
		{"last shard runs into the index", "shard 2 compressed length", func(b []byte) {
			add(field(b, 2, compLen), 1)
		}},
		{"shorter than a gzip member", "shard 0 compressed length 17", func(b []byte) {
			binary.LittleEndian.PutUint64(field(b, 0, compLen), 17)
		}},
		{"beyond DEFLATE's ratio", "shard 0 uncompressed length", func(b []byte) {
			c := int64(binary.LittleEndian.Uint64(field(b, 0, compLen)))
			binary.LittleEndian.PutUint64(field(b, 0, uncompLen), uint64(maxDeflateRatio*c+1))
		}},
		{"lengths disagree with the total", "index declares", func(b []byte) {
			add(field(b, 0, uncompLen), -1)
			add(field(b, 1, uncompLen), 2)
		}},
		{"point span wraps around", "point 0 span", func(b []byte) {
			binary.LittleEndian.PutUint64(b[pointAt+4:], 1<<63-1)
		}},
	} {
		bad := append([]byte(nil), raw...)
		c.edit(bad)
		p := filepath.Join(t.TempDir(), "bad.lplib")
		if err := os.WriteFile(p, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(p)
		if err == nil {
			n, comp, uncomp, _ := st.ShardStat(0)
			st.Close()
			t.Fatalf("%s: Open accepted it (shard 0: %d points, %d -> %d bytes)", c.name, n, comp, uncomp)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestOpenShardSteadyStateAllocs gates the pooled shard path: once the
// pools hold buffers for the largest shard, OpenShard, a full drain and
// Close allocate nothing.
func TestOpenShardSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	st, err := Open(writeTestStore(t, synthBlobs(40, 2000), 8, true))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ss := st.Source().(livepoint.ShardedSource)
	cycle := func() {
		for s := 0; s < ss.NumShards(); s++ {
			sub, err := ss.OpenShard(s)
			if err != nil {
				t.Fatal(err)
			}
			for {
				if _, err := sub.NextBlob(); err == io.EOF {
					break
				} else if err != nil {
					t.Fatal(err)
				}
			}
			sub.Close()
		}
	}
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
		t.Fatalf("OpenShard+drain+Close over %d shards allocates %.1f objects in steady state, want 0", ss.NumShards(), allocs)
	}
}
